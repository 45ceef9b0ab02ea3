"""Spectra of the multislice operators and exact gap certificates.

The headline facts being computed and certified: on every non-trivial
multislice the least nonzero Laplacian eigenvalue equals the particle count
N, its eigenspace has dimension (N-1)(r-1) for r occupied levels, and an
explicit basis is given by single-coordinate evaluations of nu-centered
level functions.  The projection-average operator mirrors this eigenspace
at eigenvalue 1/(N-1), and the two-coordinate correlation operator on level
functions has spectrum {1, -1/(N-1)}.

The whole Laplacian spectrum comes in closed form, in integers, from the
symmetric group: Young's rule gives the Specht modules in the permutation
module M^k, with Kostka multiplicities, and the content sum gives each
module's eigenvalue (:func:`laplacian_spectrum`).  Nothing here runs a
float eigensolve.

The gap certificate is the paper's recursion, run in integers.  For N >= 3
and f orthogonal to the constants, the blocks {x : x_pos = m} are copies of
the child slices k - e_m, every edge lies in N - 2 of them, and the blocks'
variances sum to N (|f|^2 - <f, P f>) for the projection average P.  With
spec(P) in {0, 1/(N-1), 1} and 1 simple, certified from integer counts, this
gives gamma(k) >= N/(N-1) * min over the non-trivial children, so from
gamma(1,1) = 2 the bound reaches N.  An eigenfunction at N makes every step
tight and so lies in P's 1/(N-1) eigenspace, whose exact count bounds the
multiplicity; the explicit family lies at N and its rank attains that count.
No float tolerance, no dense |V| x |V| matrix, and no |V|-sized family.

Every certificate that reads the transposition table rests on the graph
proof, :func:`~multislice.operators._graph_ok`: two byte comparisons show
that the vertex array is the slice in rank order and that table column p is
swap p.  That is the structure the recursion assumes (the blocks are the
children, a swap avoiding pos keeps x_pos), so the Dirichlet identities then
hold for every function and need no sampling, and a family member
f(x) = g(x_pos) has (L f)(x) = N f(x) - sum_a k_a g_a: L f = N f is the one
integer identity that g is nu-centered.

P's spectrum is fixed by k alone: on every slice the co-occurrence counts
G[p, a, q, b] = #{x : x_p = a, x_q = b} are |V| / (N (N-1)) times
I (x) S + (J - I) (x) C, s = (N-1) k and C[a, b] = k_a (k_b - delta_ab).
K = S^-1 C has its counts at 1 and -1/(N-1) from two integer nullities on
r x r matrices, which the block form turns into all three of P's, so the
recursion counts no slice.  The top slice's G is counted once, by
``bincount``, and compared exactly with the closed form
(:func:`_closed_form_ok`).  That comparison gates the gap's bound, K and P;
on it the family's Gram matrix and P's action on the family are r x r
integer identities on the generators scaled by N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import exactla
from .core import DEFAULT_BUDGET, BudgetError, Composition, check_budget
from .operators import (
    _graph_ok,
    measure_decomposition_check,
    transposition_table,
    vertex_array,
)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, sorted ascending."""

    pairs: tuple[tuple[int | Fraction, int], ...]
    source: str
    arithmetic: str

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [[str(v) if isinstance(v, Fraction) else v, m] for v, m in self.pairs],
            "source": self.source,
            "arithmetic": self.arithmetic,
        }


def _strips(shape: tuple[int, ...], cells: int) -> list[tuple[int, ...]]:
    """Pieri's rule: the shapes mu with mu / ``shape`` a horizontal strip of ``cells`` cells.

    Row i grows by at most row i-1's overhang, and at most one new row starts.
    """
    rows, out = shape + (0,), []

    def grow(i: int, left: int, acc: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                out.append(acc[:-1] if acc[-1] == 0 else acc)
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, acc + (rows[i] + add,))

    grow(0, cells, ())
    return out


def laplacian_spectrum(k: Composition, budget: int | None = DEFAULT_BUDGET) -> Spectrum:
    """The exact Laplacian spectrum by Young's rule, with no matrix and no float.

    L = C(N,2) I minus the transposition class sum on the permutation module
    M^k.  Young's rule splits M^k into K_(lambda,k) copies of each Specht
    module S^lambda, and the class sum acts on S^lambda as the content sum
    c(lambda).  So each partition lambda of N gives eigenvalue C(N,2) -
    c(lambda) with multiplicity K_(lambda,k) f^lambda, f^lambda from the hook
    length formula.  The Kostka numbers K_(lambda,k) count the ways to reach
    lambda from the empty shape by one horizontal strip of k_m cells per
    occupied level (:func:`_strips`).  ``budget`` bounds the shapes these
    Pieri steps produce, not |V|; past it :class:`BudgetError` is raised.
    """
    kostka: dict[tuple[int, ...], int] = {(): 1}
    produced = 0
    for cells in (c for c in k.counts if c):
        grown: dict[tuple[int, ...], int] = {}
        for shape, count in kostka.items():
            for new in _strips(shape, cells):
                grown[new] = grown.get(new, 0) + count
                produced += 1
                if budget is not None and produced > budget:
                    raise BudgetError(f"Young's rule for {k} produced over {budget} shapes")
        kostka = grown
    n = k.n
    spectrum: dict[int, int] = {}
    for shape, count in kostka.items():
        cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
        column = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = math.prod(shape[i] - j + column[j] - i - 1 for i, j in cells)
        value = math.comb(n, 2) - sum(j - i for i, j in cells)
        spectrum[value] = spectrum.get(value, 0) + count * math.factorial(n) // hooks
    return Spectrum(tuple(sorted(spectrum.items())), source="young-rule", arithmetic="exact")


def spectral_gap(k: Composition, budget: int | None = DEFAULT_BUDGET) -> float:
    """Least nonzero Laplacian eigenvalue, N, from :func:`gap_certificate`;
    raises ``RuntimeError`` if the certificate fails."""
    if k.is_trivial:
        raise ValueError(f"composition {k} is trivial: single vertex, no gap")
    cert = gap_certificate(k, budget=budget)
    if not cert.passed:
        raise RuntimeError(f"the gap certificate of {k} failed")
    return cert.gap


def centered_level_basis(k: Composition) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the nu-centered level functions.

    One generator per occupied level past the first: the indicator of that
    level minus its nu-weight.  Each has nu-mean zero exactly; together they
    span the whole centered space (dimension r-1 for r occupied levels).
    """
    active = k.active_levels
    if len(active) < 2:
        raise ValueError(f"composition {k} has fewer than two occupied levels")
    out = []
    for a in active[1:]:
        g = [Fraction(-k.counts[a], k.n)] * k.r
        g[a] += 1
        out.append(tuple(g))
    return out


@dataclass(frozen=True)
class GapBasis:
    """The explicit gap eigenbasis f(x) = g(x_pos).

    Generators are nu-centered level functions; positions stop one short of
    N because summing one generator over all N coordinates gives the zero
    function, so the last coordinate is redundant.  No member is built: the
    certificates read the generators in integers, as N g
    (:meth:`scaled_generators`), and the members through the co-occurrence
    counts.
    """

    composition: Composition
    generators: tuple[tuple[Fraction, ...], ...]
    positions: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.generators) * len(self.positions)

    def scaled_generators(self) -> np.ndarray:
        """N g on the occupied levels, one int64 row per generator (:func:`_scaled_generators`)."""
        k = self.composition
        return _scaled_generators(k.counts)[:, k.active_levels]


def _scaled_generators(counts: tuple[int, ...]) -> np.ndarray:
    """N g = N e_a - k_a for each occupied level a past the first, one int64 row over every level:
    :func:`centered_level_basis` scaled by N, straight from the counts."""
    n, levels = sum(counts), [a for a, c in enumerate(counts) if c][1:]
    rows = [[n * (a == b) - counts[a] for b in range(len(counts))] for a in levels]
    return np.array(rows, dtype=np.int64).reshape(len(levels), len(counts))


def gap_eigenbasis(k: Composition, budget: int | None = DEFAULT_BUDGET) -> GapBasis:
    """Explicit eigenbasis of the Laplacian at eigenvalue N.

    Every member satisfies Lf = Nf exactly, and the family of
    (N-1) * (occupied levels - 1) members is linearly independent.
    """
    if k.is_trivial:
        raise ValueError(f"composition {k} is trivial; the gap eigenspace is empty")
    check_budget(k, budget)
    return GapBasis(
        composition=k,
        generators=tuple(centered_level_basis(k)),
        positions=tuple(range(k.n - 1)),
    )


@dataclass(frozen=True)
class Certificate:
    """Outcome of one verification; ``passed=None`` means not applicable."""

    name: str
    passed: bool | None
    details: dict = field(default_factory=dict)


def coordinate_sum_is_zero(
    k: Composition,
    g_list: Sequence[Sequence],
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Does sum_pos g_pos(x_pos) vanish on the whole slice?

    For nu-centered generators this happens exactly when all N level
    functions coincide, which is why the explicit eigenbasis is linearly
    independent.
    """
    if len(g_list) != k.n:
        raise ValueError(f"need exactly {k.n} level functions, got {len(g_list)}")
    for g in g_list:
        if len(g) != k.r:
            raise ValueError("each level function needs one value per level")
    varr = vertex_array(k, budget)
    for row in varr.tolist():
        total = sum(g[m] for g, m in zip(g_list, row))
        if total != 0:
            return False
    return True


def _k_spectrum(s: np.ndarray, c: np.ndarray, n: int) -> Spectrum:
    """Counts of K = S^-1 C at -1/(N-1) and 1, S = diag(s), from two integer nullities.

    ker(K - lambda) = ker(C - lambda S), so the counts are null(S + (N-1) C)
    and null(S - C), by Bareiss on r x r integers; any positive multiple of
    the blocks gives the same K.  They sum to r exactly when K is
    diagonalizable with its spectrum in {1, -1/(N-1)}.
    """
    big_s = np.diag(s)
    low, one = (exactla.exact_nullity((big_s + t * c).tolist(), cap=None) for t in (n - 1, -1))
    pairs = ((Fraction(-1, n - 1), low), (Fraction(1), one))
    return Spectrum(tuple((v, m) for v, m in pairs if m), "level-correlation", "exact")


def _level_pairs(k: Composition) -> tuple[np.ndarray, np.ndarray]:
    """The occupied counts k_a, and k_a (k_b - delta_ab): the ordered level pairs (a, b) of two particles."""
    counts = np.array([c for c in k.counts if c], dtype=np.int64)
    return counts, counts[:, None] * (counts - np.eye(len(counts), dtype=np.int64))


@dataclass(frozen=True)
class GapCertificate:
    """Exact certificate for the gap and its eigenspace."""

    composition: str
    size: int
    degree: int
    expected_dimension: int
    eigen_equations_exact: bool
    family_rank: int
    nullity_upper_bound: int
    engine: str
    dimension_certified: bool
    gap: float
    delta: float
    float_ok: bool
    zero_multiplicity: int | None
    interior_eigenvalues: int | None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return bool(
            self.eigen_equations_exact
            and self.family_rank == self.expected_dimension
            and self.dimension_certified
            and self.float_ok
        )

    def as_dict(self) -> dict:
        return {**self.__dict__, "notes": list(self.notes), "passed": self.passed}


def _key(k: Composition) -> tuple[int, ...]:
    """Sorted counts of the reduced slice: relabelling and dropping empty levels are isomorphisms."""
    return tuple(sorted(c for c in k.counts if c))


@lru_cache(maxsize=None)
def _children(counts: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Sorted counts of the non-trivial children k - e_m of the slice ``counts``, memoized."""
    k = Composition(counts)
    return frozenset(child for child in (_key(k.decremented(m)) for m in range(k.r)) if len(child) > 1)


@lru_cache(maxsize=None)
def _gap_bound(counts: tuple[int, ...]) -> tuple[Fraction | None, int]:
    """Certified lower bound on the gap of a non-trivial slice, with the bound
    on the multiplicity of N that it gives, memoized per sorted counts.

    The bound is 2 at (1,1), where the multiplicity bound is |V| - 1 = 1.  For
    N >= 3 it is N/(N-1) times the least bound over the non-trivial children,
    provided P's counts (:func:`_p_counts`, which counts no vertex) certify
    spec(P) in {0, 1/(N-1), 1} with 1 simple; the multiplicity bound is then
    P's count at 1/(N-1).  The bound is None when a step fails, here or in
    any child.  Callers go through
    :func:`_certified_bound`, which keeps the recursion one level deep.
    """
    k = Composition(counts)
    if k.n == 2:
        return Fraction(2), 1
    in_set, one_simple, mid = _p_counts(counts)
    bounds = [_gap_bound(child)[0] for child in _children(counts)]
    if not (in_set and one_simple) or None in bounds:
        return None, mid
    return Fraction(k.n, k.n - 1) * min(bounds), mid


def _certified_bound(counts: tuple[int, ...]) -> tuple[Fraction | None, int]:
    """:func:`_gap_bound` of ``counts``, bounding the slices below it first, one
    particle count at a time from the smallest: every step finds its children
    memoized, so the stack depth does not grow with N."""
    layers = [{counts}]  # layer i holds the slices of N - i particles
    while layers[-1]:
        layers.append(set().union(*map(_children, layers[-1])))
    return [_gap_bound(key) for layer in reversed(layers) for key in layer][-1]


def _at_gap(table: np.ndarray, members: np.ndarray, n: int) -> np.ndarray:
    """Residuals f + sum_q f(swap_(0,q) x) of L f = N f per vertex, for members f(x) = g(x_0) given
    as columns of N f: the slice's, q < N = ``n``, and on each block {x : x_{N-1} = m} a child's,
    q < N - 1, as the pair (0, N - 1) leaves the block.  A pair avoiding 0 fixes f on a graph that
    :func:`_graph_ok` certifies, so only these columns are read, one at a time, for both members;
    the sums, at most N max|f|, run in the narrowest signed dtype that holds that bound."""
    bound = n * int(np.abs(members).max())
    members = members.astype(np.min_scalar_type(-bound - 1))  # the narrowest signed dtype holding -bound - 1 holds bound
    total = members.copy()
    for p in range(n - 2):  # the pairs (0, 1), ..., (0, N - 2) come first
        total += members.take(table[:, p], axis=0)
    total[:, 0] += members[:, 0].take(table[:, n - 2])
    return total


@dataclass(frozen=True)
class CertifiedSlice:
    """A slice as every certificate reads it, built once per counts (:func:`_certified_slice`):
    vertex array, table, the graph proof's verdict on those two arrays, counts and level pairs
    (:func:`_level_pairs`).  G, its closed-form verdict and the gap witnesses come on first read."""

    k: Composition
    varr: np.ndarray
    table: np.ndarray
    graph_ok: bool
    counts: np.ndarray
    pairs: np.ndarray

    @classmethod
    def build(cls, k: Composition, budget: int | None = DEFAULT_BUDGET) -> "CertifiedSlice":
        """k's slice from the memo, refused above ``budget`` first."""
        check_budget(k, budget)
        return _certified_slice(k.counts)

    @cached_property
    def g(self) -> np.ndarray:
        return _cooccurrence(self.k, None)

    @cached_property
    def closed_ok(self) -> bool:
        return _closed_form_ok(self)

    @cached_property
    def witnesses(self) -> tuple[bool, np.ndarray]:
        """Is gamma <= N, and per level m, is gamma <= N - 1 on the child k - e_m?  With the swaps
        that keep x_{N-1}, the block {x : x_{N-1} = m} is that child, so the graph proof covers it.
        One :func:`_at_gap` pass reads the slice's member N g(x_0) and, per block, the child's
        (N - 1) h_m(x_0), both from :func:`_scaled_generators`; each verdict also needs its member
        nonzero.  A reduced slice only."""
        k, first, last = self.k, self.varr[:, 0], self.varr[:, -1]
        children = np.zeros((k.r, k.r), dtype=np.int64)
        for m, c in enumerate(k.counts):  # the child k - e_m, in the slice's level labels
            gens = _scaled_generators(k.counts[:m] + (c - 1,) + k.counts[m + 1:])
            children[m] = gens[0] if len(gens) else 0  # a trivial child has no member
        members = np.stack([_scaled_generators(k.counts)[0][first], children[last, first]], axis=1)
        total = _at_gap(self.table, members, k.n)
        top = self.graph_ok and bool(members[:, 0].any()) and not total[:, 0].any()
        held = np.bincount(last[total[:, 1] != 0], minlength=k.r) == 0
        return top, self.graph_ok & held & (np.bincount(last[members[:, 1] != 0], minlength=k.r) > 0)


@lru_cache(maxsize=32)
def _certified_slice(counts: tuple[int, ...]) -> CertifiedSlice:
    """The memo of slices, sized as ``_swap_table``'s and the one place a slice is built, so a verdict
    stays with the arrays it proved; the table first, refused over ``TABLE_ENTRY_CAP`` before |V| rows."""
    k = Composition(counts)
    table, varr = transposition_table(k, None), vertex_array(k, None)
    return CertifiedSlice(k, varr, table, _graph_ok(k, varr, table), *_level_pairs(k))


def gap_certificate(
    k: Composition,
    tol: float = DEFAULT_TOL,
    budget: int | None = DEFAULT_BUDGET,
) -> GapCertificate:
    """Certify gap = N and its (N-1)(r-1)-dimensional eigenspace, exactly.

    The paper's recursion (:func:`_certified_bound`) proves gamma >= N and
    bounds the multiplicity of N by P's count at 1/(N-1); ``float_ok`` also
    needs the slice's counted G to equal the closed form
    (:func:`_closed_form_ok`).  On a transposition table that the graph
    proof (:func:`~multislice.operators._graph_ok`) certifies, every family
    member f(x) = g(x_pos) has (L f)(x) = N f(x) - sum_a k_a g_a, so
    L f = N f is the integer identity sum_a k_a (N g)_a = 0 per generator.
    On that G the family's Gram matrix is a positive multiple of
    A (x) I_m + B (x) (J_m - I_m), A = Gamma S Gamma^T and B = Gamma C Gamma^T
    for the scaled generators Gamma, and its rank
    (:func:`~multislice.exactla.exchangeable_rank`) must equal that count.
    So the gap is exactly N, the family spans its eigenspace, and no member
    is built.  ``tol`` no longer affects the certificate; it is accepted so
    that callers passing it keep working.
    """
    reduced, _ = k.reduce()
    if reduced.is_trivial:
        raise ValueError(f"composition {k} is trivial; nothing to certify")
    return _gap_certificate(k, CertifiedSlice.build(reduced, budget))


def _gap_certificate(k: Composition, sl: CertifiedSlice) -> GapCertificate:
    """:func:`gap_certificate` of ``k`` on its reduced slice ``sl``."""
    reduced, n = sl.k, sl.k.n
    bound, nullity_bound = _certified_bound(_key(reduced))
    gens = _scaled_generators(reduced.counts).astype(object)
    expected = len(gens) * (n - 1)
    eigen_exact = sl.graph_ok and not (gens @ sl.counts).any()
    family_rank = exactla.exchangeable_rank(gens * ((n - 1) * sl.counts) @ gens.T, gens @ sl.pairs @ gens.T, n - 1)

    # the family lies at N, so a bound above N would be a contradiction; the
    # bound rests on the closed form, which the slice's counted G must match
    bound_ok = bound == n and sl.closed_ok
    proven = bound_ok and eigen_exact and family_rank == expected
    gap = float(n) if proven else float("nan")

    return GapCertificate(
        composition=str(k),
        size=reduced.cardinality(),
        degree=reduced.degree(),
        expected_dimension=expected,
        eigen_equations_exact=eigen_exact,
        family_rank=family_rank,
        nullity_upper_bound=nullity_bound if bound_ok else -1,
        engine="recursion",
        dimension_certified=proven and family_rank == nullity_bound,
        gap=gap,
        delta=2.0 * gap / (n - 1),
        float_ok=bound_ok,
        zero_multiplicity=1 if proven else None,
        interior_eigenvalues=0 if proven else None,
        notes=(f"reduced {k} to {reduced}",) if reduced.counts != k.counts else (),
    )


def _cooccurrence(k: Composition, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """G[p, a, q, b] = #{x : x_p = a, x_q = b} over the active levels a, b, as a
    read-only int64 array, counted once per reduced counts (:func:`_count_pairs`)."""
    check_budget(k, budget)
    return _count_pairs(tuple(c for c in k.counts if c))


@lru_cache(maxsize=None)
def _count_pairs(counts: tuple[int, ...]) -> np.ndarray:
    """G for the reduced slice ``counts``, counted in integers: one
    ``bincount`` per position p of the codes x_p (N r) + q r + x_q over every
    vertex x and position q fills G[p]."""
    k = Composition(counts)
    n, r = k.n, k.r
    levels = vertex_array(k, None)
    columns = levels + r * np.arange(n)  # q r + x_q
    g = np.empty((n, r, n, r), dtype=np.int64)
    for p in range(n):
        codes = levels[:, p, None] * (n * r) + columns
        g[p] = np.bincount(codes.ravel(), minlength=r * n * r).reshape(r, n, r)
    g.setflags(write=False)
    return g


@lru_cache(maxsize=None)
def _p_counts(counts: tuple[int, ...]) -> tuple[bool, bool, int]:
    """P's spectrum from K's two counts on the closed-form blocks, for N >= 3,
    memoized per sorted counts: relabelling the levels permutes S and C alike.

    P = B D B^T and D G = D B^T B share their nonzero spectrum with
    multiplicities, D = I (x) diag(1 / (N s)).  G is |V| / (N (N-1)) times
    I (x) S + (J - I) (x) C, with s = (N-1) k and C = k_a (k_b - delta_ab)
    (:func:`_level_pairs`), so D G acts as (I + (N-1) K)/N on 1 (x) R^r and
    as (I - K)/N on the N - 1 directions orthogonal to 1, K = S^-1 C.  So K's
    eigenvalue 1 gives P's 1 and 0, K's -1/(N-1) gives 0 and 1/(N-1), and any
    other eigenvalue of K lands outside {0, 1/(N-1), 1} in one of the two.

    Returns whether spec(P) lies in {0, 1/(N-1), 1}: K's counts at 1 and
    -1/(N-1) sum to r; whether 1 is simple: K's count at 1 is 1; and P's
    count at 1/(N-1): N - 1 times K's count at -1/(N-1).
    """
    k = Composition(counts)
    n = k.n
    counts, pairs = _level_pairs(k)
    spec = dict(_k_spectrum((n - 1) * counts, pairs, n).pairs)
    low, one = spec.get(Fraction(-1, n - 1), 0), spec.get(Fraction(1), 0)
    return low + one == len(counts), one == 1, (n - 1) * low


def _closed_form_ok(sl: CertifiedSlice) -> bool:
    """Is the slice's counted G the closed form I (x) S + (J - I) (x) C, with
    s_a = |V| k_a / N and C[a, b] = |V| k_a (k_b - delta_ab) / (N (N-1)), the
    sizes of the slices k - e_a and k - e_a - e_b?  The r x r blocks are
    scaled in Python ints, and each entry is at most |V|, so the int64
    comparison is exact."""
    n, size = sl.k.n, sl.k.cardinality()
    s, c = ((size * x.astype(object) // (n * (n - 1))).astype(np.int64) for x in ((n - 1) * sl.counts, sl.pairs))
    eye = np.eye(n, dtype=np.int64)[:, None, :, None]
    return np.array_equal(sl.g, eye * np.diag(s)[:, None, :] + (1 - eye) * c[:, None, :])


def k_certificate(k: Composition, budget: int | None = DEFAULT_BUDGET) -> Certificate:
    """Certify the level-correlation operator K = S^-1 C in integers, on the
    co-occurrence blocks S = diag(s) and C = G[first, :, last, :].

    The spectrum is :func:`_k_spectrum` of those blocks.  nu is proportional
    to s, so K is nu-self-adjoint iff C = C^T; K 1 = 1 iff C 1 = s; and K
    scales N times each centered basis function g by -1/(N-1) iff
    (N-1) C g = -S g.  The count check (``bruteforce_ok``) compares all of G,
    these blocks included, with its closed form (:func:`_closed_form_ok`).
    """
    if k.n < 2:
        raise ValueError("needs at least two particles")
    return _k_certificate(CertifiedSlice.build(k.reduce()[0], budget))


def _k_certificate(sl: CertifiedSlice) -> Certificate:
    n, size, counts, g = sl.k.n, sl.k.cardinality(), sl.counts, sl.g
    s, c = np.diagonal(g[0, :, 0, :]), g[0, :, n - 1, :]
    spec = _k_spectrum(s, c, n)
    expected = ((Fraction(-1, n - 1), len(counts) - 1),) if len(counts) >= 2 else ()
    centered = n * np.eye(len(counts), dtype=np.int64)[1:] - counts[1:, None]  # N (e_a - nu_a 1), a row each
    details = {
        "spectrum": spec.as_dict(),
        "spectrum_ok": spec.pairs == expected + ((Fraction(1), 1),),
        "nu_selfadjoint_ok": np.array_equal(c, c.T),
        "eigen_actions_ok": np.array_equal(c.sum(axis=1), s)
        and np.array_equal((n - 1) * centered @ c.T, -centered * s),
        "bruteforce_ok": sl.closed_ok,
        "bruteforce_size": size,
    }
    passed = all(v for key, v in details.items() if key.endswith("_ok"))
    return Certificate("level-correlation", passed, details)


def p_certificate(
    k: Composition,
    tol: float = DEFAULT_TOL,
    budget: int | None = DEFAULT_BUDGET,
) -> Certificate:
    """Certify the projection-average spectrum and its eigenvector structure, exactly.

    P's three eigenvalue counts follow from K's two on the closed-form blocks
    (:func:`_p_counts`); the counted G's equality with them
    (:func:`_closed_form_ok`) gates every verdict.  G's blocks give P's
    action: C 1 = s alongside a simple 1 fixes the constants, and the family
    lies at 1/(N-1) by r x r identities on its generators.  ``tol`` no longer
    affects the certificate; it is accepted so that callers passing it keep
    working.
    """
    if k.n < 3:
        raise ValueError("projection-average certificate needs at least three particles")
    return _p_certificate(CertifiedSlice.build(k.reduce()[0], budget))


def _p_certificate(sl: CertifiedSlice) -> Certificate:
    k, g, counts, closed_ok = sl.k, sl.g, sl.counts, sl.closed_ok
    n, r = k.n, k.r_active
    details: dict = {}
    s, c = np.diagonal(g[0, :, 0, :]), g[0, :, n - 1, :]
    in_set, simple_one, mid = _p_counts(_key(k))
    details["values_in_set"] = in_set = closed_ok and in_set
    details["one_simple"] = simple_one = closed_ok and simple_one
    details["one_eigenvector_constant"] = constant_ok = simple_one and np.array_equal(c.sum(axis=1), s)

    # P f = f/(N-1) for f(x) = g(x_pos), N g a row of gens.  P_pos f = f, and
    # on G's block form P_p f(x) = (C g)_(x_p) / s_(x_p) for p != pos, which
    # is -g(x_p)/(N-1) once (N-1) C g = -S g.  With sum_a k_a g_a = 0 the
    # N - 1 terms sum to -(sum_a k_a g_a - g(x_pos))/(N-1) = f(x)/(N-1), so
    # N (P f)(x) = f(x) N/(N-1).
    gens = _scaled_generators(k.counts)
    expected_dim = (n - 1) * (r - 1)
    details["gap_multiplicity"] = mid
    details["expected_multiplicity"] = expected_dim
    details["exact_actions_ok"] = exact_ok = (
        closed_ok and np.array_equal((n - 1) * gens @ c.T, -gens * s) and not (gens @ counts).any()
    )

    passed = bool(in_set and simple_one and constant_ok and mid == expected_dim and exact_ok)
    return Certificate("projection-average", passed, details)


@dataclass(frozen=True)
class InductionReport:
    """One step of the gap recursion from N-1 to N particles."""

    composition: str
    delta: float
    children: tuple[tuple[int, str, float | None], ...]
    factor: str
    rhs: float
    holds: bool
    equality: bool

    def as_dict(self) -> dict:
        return {**self.__dict__, "children": [list(c) for c in self.children]}


def _certified_delta(sl: CertifiedSlice, m: int | None = None) -> Fraction | None:
    """Scaled gap 2N/(N-1) of the reduced slice ``sl``, or of its child k - e_m, when gamma >= N,
    by the recursion, and gamma <= N, by the witness, are proven, else None."""
    top, children = sl.witnesses
    k, attained = (sl.k, top) if m is None else (sl.k.decremented(m), children[m])
    proven = attained and _certified_bound(_key(k))[0] == k.n
    return Fraction(2 * k.n, k.n - 1) if proven else None


def _float_or_nan(x: Fraction | None) -> float:
    return float("nan") if x is None else float(x)


def induction_audit(
    k: Composition,
    tol: float = DEFAULT_TOL,
    budget: int | None = DEFAULT_BUDGET,
) -> InductionReport:
    """Check the scaled gap against its one-particle-smaller lower bound.

    Delta(N,k) >= N(N-2)/(N-1)^2 * min over occupied levels of
    Delta(N-1, k with that level decremented); trivial children drop out.
    Every Delta is the exact 2 gamma/(N-1) with gamma = N proven from both
    sides: below by the recursion bound that :func:`gap_certificate` shares,
    above by one member's exact eigen equation on k's own table, for k on
    the whole table and for each child k - e_m on its block {x : x_{N-1} = m}
    (:attr:`CertifiedSlice.witnesses`).  So one table and one graph proof
    serve every Delta, and both sides are compared exactly, where equality
    is expected throughout.  A slice or
    child whose gap is not proven makes both verdicts False and reports its
    Delta as nan.  ``tol`` no longer affects the audit; it is accepted so
    that callers passing it keep working.
    """
    if k.n < 3:
        raise ValueError("induction needs at least three particles")
    if not k.is_reduced:
        raise ValueError("reduce the composition first; empty levels have no child")
    if k.is_trivial:
        raise ValueError("trivial composition")
    return _induction_audit(CertifiedSlice.build(k, budget))


def _induction_audit(sl: CertifiedSlice) -> InductionReport:
    k, n = sl.k, sl.k.n
    delta = _certified_delta(sl)
    children: list[tuple[int, str, float | None]] = []
    child_values = []
    for m in range(k.r):
        child, _ = k.decremented(m).reduce()
        if child.is_trivial:
            children.append((m, str(child), None))
            continue
        value = _certified_delta(sl, m)
        children.append((m, str(child), _float_or_nan(value)))
        child_values.append(value)
    if not child_values:
        raise ValueError(f"all children of {k} are trivial")
    factor = Fraction(n * (n - 2), (n - 1) ** 2)
    proven = delta is not None and None not in child_values
    rhs = factor * min(child_values) if proven else None
    return InductionReport(
        composition=str(k),
        delta=_float_or_nan(delta),
        children=tuple(children),
        factor=str(factor),
        rhs=_float_or_nan(rhs),
        holds=proven and delta >= rhs,
        equality=proven and delta == rhs,
    )


@dataclass(frozen=True)
class CertificationReport:
    """Everything `verify` checks for one composition."""

    composition: str
    size: int
    degree: int
    trivial: bool
    certificates: tuple[Certificate, ...]
    gap: float | None
    gap_multiplicity: int | None
    delta: float | None

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.certificates)

    def as_dict(self) -> dict:
        return {
            "composition": self.composition,
            "cardinality": self.size,
            "degree": self.degree,
            "trivial": self.trivial,
            "gap": self.gap,
            "gap_multiplicity": self.gap_multiplicity,
            "delta": self.delta,
            "passed": self.passed,
            "certificates": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.certificates
            ],
        }


def certification_suite(k: Composition, budget: int | None = DEFAULT_BUDGET) -> CertificationReport:
    """Run every certificate that applies to one composition.

    Every certificate reads one :class:`CertifiedSlice`.  The graph proof
    first: the vertex array and the transposition table are the slice
    (:func:`~multislice.operators._graph_ok`), which every later certificate
    that reads the table requires.  Then gap and eigenbasis,
    level-correlation operator, projection average and the induction step
    (both for three or more particles), and the Dirichlet identities.  On a
    certified graph those hold for every function: averaging by counting
    over the pair index, shift because a swap avoiding pos stays in its
    block, decomposition from the two; with the measure decomposition,
    checked in integers, that is the ``identities`` certificate.  Nothing is
    sampled.  Checks whose preconditions fail are recorded with
    ``passed=None`` rather than silently dropped.
    """
    size = check_budget(k, budget)
    if k.is_trivial:
        return CertificationReport(str(k), size, k.degree(), True, (), gap=None, gap_multiplicity=None, delta=None)
    sl = CertifiedSlice.build(k.reduce()[0], budget)
    certs = [Certificate("graph", sl.graph_ok, {"composition": str(sl.k)})]

    gap_cert = _gap_certificate(k, sl)
    certs.append(Certificate("gap-and-eigenbasis", gap_cert.passed, gap_cert.as_dict()))
    certs.append(_k_certificate(sl))

    if k.n >= 3:
        certs.append(_p_certificate(sl))
        audit = _induction_audit(sl)
        certs.append(
            Certificate("induction", audit.holds and audit.equality, audit.as_dict())
        )
    else:
        for name in ("projection-average", "induction"):
            certs.append(Certificate(name, None, {"status": "skipped", "reason": "needs N >= 3"}))

    ident = {
        "composition": str(k),
        "graph_ok": sl.graph_ok,
        "measure_decomposition_ok": measure_decomposition_check(k),
        "applicable": k.n >= 3,
    }
    certs.append(Certificate("identities", sl.graph_ok and ident["measure_decomposition_ok"], ident))

    return CertificationReport(
        composition=str(k),
        size=size,
        degree=k.degree(),
        trivial=False,
        certificates=tuple(certs),
        gap=gap_cert.gap,
        gap_multiplicity=gap_cert.expected_dimension if gap_cert.dimension_certified else None,
        delta=gap_cert.delta,
    )
