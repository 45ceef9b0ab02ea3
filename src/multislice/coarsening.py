"""Level-merging surjections and the spectral audits they enable.

A coarsening map sends s source levels onto r target levels; applied
entrywise it maps one multislice onto another with the merged counts.
Relabelling levels commutes with swapping positions, so composition with
the coarsening intertwines the two Laplacians, the coarse spectrum embeds
into the fine one and coarse gaps can only grow.  Both audits prove this by
one integer comparison of the two vertex arrays, with no eigensolve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DEFAULT_BUDGET, Composition, _ranks, check_budget
from .operators import vertex_array
from .spectral import _certified_delta, _certified_slice, _key

#: :func:`all_coarsenings` is limited to this many source levels.  The cap
#: bounds the size of its output, which grows exponentially (126 targets
#: on (1^8)), not its search time, which the pruned search keeps small.
SEARCH_LEVEL_CAP = 8


@dataclass(frozen=True)
class CoarseningMap:
    """Surjection of level sets, stored as a lookup table.

    ``table[m]`` is the target level for source level ``m``.  A *strict*
    coarsening has more source levels than target levels.
    """

    table: tuple[int, ...]
    target_levels: int

    def __init__(self, table: Sequence[int], target_levels: int | None = None):
        table = tuple(int(t) for t in table)
        if not table:
            raise ValueError("empty coarsening table")
        targets = target_levels if target_levels is not None else max(table) + 1
        if targets < 1:
            raise ValueError("need at least one target level")
        if set(table) != set(range(targets)):
            raise ValueError(f"table {table} is not onto {targets} levels")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "target_levels", targets)

    @property
    def source_levels(self) -> int:
        return len(self.table)

    def to_json(self) -> str:
        return json.dumps({"s": self.source_levels, "r": self.target_levels, "table": list(self.table)})

    def __call__(self, level: int) -> int:
        return self.table[level]


def coarsen_composition(phi: CoarseningMap, k: Composition) -> Composition:
    """Merged counts: target level m collects every source level mapping to it."""
    if k.r != phi.source_levels:
        raise ValueError(f"{k} has {k.r} levels, map expects {phi.source_levels}")
    out = [0] * phi.target_levels
    for m, c in enumerate(k.counts):
        out[phi(m)] += c
    return Composition(out)


def vertex_map(
    phi: CoarseningMap, k: Composition, budget: int | None = DEFAULT_BUDGET
) -> np.ndarray:
    """Rank-to-rank realization of the vertex coarsening (fine rank -> coarse rank)."""
    coarse = coarsen_composition(phi, k)
    relabeled = np.array(phi.table, dtype=np.int64)[vertex_array(k, budget)]
    return _ranks(coarse.counts, relabeled)


@lru_cache(maxsize=None)
def _equivariant(phi: CoarseningMap, counts: tuple[int, ...]) -> tuple[bool, bool]:
    """Is phi(swap_p x) = swap_p phi(x) for every x of the fine slice ``counts`` and pair p; is phi onto?

    Memoized per pair, so the two audits of one pair share the verdicts.  Both slices come from the
    memo (:func:`~multislice.spectral._certified_slice`), the fine one first, so ``TABLE_ENTRY_CAP``
    refuses it before anything of |V| rows.  ``coarse.varr[vmap] == phi(fine.varr)`` shows that vmap
    is phi on ranks, so on the two certified slices (both graph proofs are required) vmap[fine.table]
    == coarse.table[vmap], as swaps commute with phi, with no table gathered.  Equivariance already
    forces phi onto the connected coarse slice; onto makes Phi injective, so it is checked too.
    """
    k = Composition(counts)
    fine, coarse = _certified_slice(counts), _certified_slice(coarsen_composition(phi, k).counts)
    vmap = vertex_map(phi, k, None)
    onto = bool(np.bincount(vmap, minlength=len(coarse.table)).all())
    relabeled = np.array(phi.table)[fine.varr]
    return fine.graph_ok and coarse.graph_ok and np.array_equal(coarse.varr[vmap], relabeled), onto


def intertwine_audit(
    phi: CoarseningMap,
    k: Composition,
    n_functions: int = 100,
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> dict:
    """Exact intertwining L_fine Phi = Phi L_coarse, with (Phi g)(x) = g(phi(x)).

    L = sum_p (I - T_p), so it holds for every coarse function once phi
    commutes with every swap.  ``n_functions`` and ``seed`` are accepted so
    that callers passing them keep working; no function is sampled.
    """
    check_budget(k, budget)  # the fine budget bounds the coarse one
    (equivariant, _), coarse = _equivariant(phi, k.counts), coarsen_composition(phi, k)
    return {"map": phi.to_json(), "fine": str(k), "coarse": str(coarse), "all_exact": equivariant}


@dataclass(frozen=True)
class ContainmentReport:
    fine: str
    coarse: str
    contained: bool
    gap_fine: float
    gap_coarse: float
    gap_monotone: bool
    max_mismatch: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def spectrum_containment(
    phi: CoarseningMap,
    k: Composition,
    budget: int | None = DEFAULT_BUDGET,
) -> ContainmentReport:
    """Every coarse Laplacian eigenvalue reappears in the fine spectrum, with
    its multiplicity, and merging levels cannot lower the gap.

    Proved, with no eigensolve: phi commuting with every swap gives
    L_fine Phi = Phi L_coarse, and phi onto makes Phi injective, so
    ``max_mismatch`` is 0.  Each gap is N where gamma = N is proven from both
    sides, on the memoized slice of its sorted counts, else nan, which fails
    ``gap_monotone``.
    """
    check_budget(k, budget)  # the fine budget bounds the coarse one
    (equivariant, onto), coarse = _equivariant(phi, k.counts), coarsen_composition(phi, k)
    contained = equivariant and onto
    nan = float("nan")
    gap_fine = float(k.n) if not k.is_trivial and _sorted_delta(k) else nan
    gap_coarse = float("inf") if coarse.is_trivial else float(coarse.n) if _sorted_delta(coarse) else nan
    return ContainmentReport(
        fine=str(k),
        coarse=str(coarse),
        contained=contained,
        gap_fine=gap_fine,
        gap_coarse=gap_coarse,
        gap_monotone=contained and gap_coarse >= gap_fine,
        max_mismatch=0.0 if contained else nan,
    )


def _sorted_delta(k: Composition) -> Fraction | None:
    """:func:`~multislice.spectral._certified_delta` on the memoized slice of k's sorted counts."""
    return _certified_delta(_certified_slice(_key(k)))


def is_coarser(coarse: Composition, fine: Composition) -> CoarseningMap | None:
    """A surjection phi with phi(fine) = coarse, or None if none exists.

    Exact: a depth-first search sends the occupied fine levels, in order, to
    coarse levels whose remaining count can take them, and remembers the
    dead ends.  Once the counts are used up every occupied coarse level is
    hit; an empty coarse level can only be hit by an empty fine level.
    """
    if coarse.n != fine.n:
        return None
    empty = [m for m, c in enumerate(coarse.counts) if not c]
    idle = [m for m, c in enumerate(fine.counts) if not c]
    busy = [m for m, c in enumerate(fine.counts) if c]
    if len(idle) < len(empty):
        return None

    @lru_cache(maxsize=None)
    def fill(i: int, room: tuple[int, ...]) -> tuple[int, ...] | None:
        """Targets for busy[i:] that use up ``room`` exactly, or None."""
        if i == len(busy):
            return ()  # both sides sum to N, so nothing is left over
        count = fine.counts[busy[i]]
        for target, space in enumerate(room):
            if count <= space:
                rest = fill(i + 1, room[:target] + (space - count,) + room[target + 1:])
                if rest is not None:
                    return (target,) + rest
        return None

    targets = fill(0, coarse.counts)
    if targets is None:
        return None
    table = [0] * fine.r  # idle levels left over may go anywhere
    for source, target in [*zip(busy, targets), *zip(idle, empty)]:
        table[source] = target
    return CoarseningMap(table, coarse.r)


def all_coarsenings(
    k: Composition, level_cap: int = SEARCH_LEVEL_CAP
) -> dict[Composition, CoarseningMap]:
    """Strictly coarser compositions reachable from ``k``, with one witness each.

    For each r from 2 to s - 1 in turn, the witness of a new target is the
    lexicographically first table onto r levels that merges ``k`` into it,
    and targets appear in the order of their witnesses.  A depth-first
    search sends source levels 0, 1, ... to labels in ascending order and
    skips a state (level, merged counts so far, labels used) that it has
    seen, or that has too few levels left to use every label.  The skip
    loses nothing: a state's completions depend on the state alone, so a
    state seen again leads only to targets already reached from a
    lexicographically smaller prefix.
    """
    s = k.r
    if s > level_cap:
        raise ValueError(f"{s} source levels exceed the search cap {level_cap}")
    out: dict[Composition, CoarseningMap] = {}
    for r in range(2, s):
        seen: set[tuple[int, tuple[int, ...], int]] = set()

        def extend(i: int, merged: tuple[int, ...], used: int, table: tuple[int, ...]) -> None:
            state = (i, merged, used)
            if state in seen or r - used.bit_count() > s - i:
                return
            seen.add(state)
            if i == s:  # every label is used, so the table is onto
                out.setdefault(Composition(merged), CoarseningMap(table, r))
                return
            for t in range(r):
                bumped = merged[:t] + (merged[t] + k.counts[i],) + merged[t + 1:]
                extend(i + 1, bumped, used | 1 << t, table + (t,))

        extend(0, (0,) * r, 0, ())
    return out
