"""Level-merging surjections and the spectral audits they enable.

A coarsening map sends s source levels onto r target levels; applied
entrywise it maps one multislice onto another with the merged counts.
Composition with the coarsening intertwines the two Laplacians exactly,
so the coarse spectrum embeds into the fine spectrum and coarse gaps can
only grow.  These facts are checked here, exactly where possible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DEFAULT_BUDGET, Composition, Vertex, _ranks
from .operators import _laplacian_action, _values, apply_laplacian, transposition_table, vertex_array
from .spectral import DEFAULT_DENSE_CAP, DEFAULT_TOL, laplacian_eigenvalues, spectral_gap

#: Exhaustive witness search is limited to this many source levels.
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

    @property
    def is_strict(self) -> bool:
        return self.source_levels > self.target_levels

    @classmethod
    def identity(cls, levels: int) -> "CoarseningMap":
        return cls(tuple(range(levels)), levels)

    @classmethod
    def from_json(cls, text: str) -> "CoarseningMap":
        data = json.loads(text)
        return cls(data["table"], data["r"])

    def to_json(self) -> str:
        return json.dumps({"s": self.source_levels, "r": self.target_levels, "table": list(self.table)})

    def __call__(self, level: int) -> int:
        return self.table[level]

    def compose(self, other: "CoarseningMap") -> "CoarseningMap":
        """Coarsening that applies ``self`` first, then ``other``."""
        if other.source_levels != self.target_levels:
            raise ValueError("level counts do not chain")
        return CoarseningMap(tuple(other.table[t] for t in self.table), other.target_levels)


def coarsen_composition(phi: CoarseningMap, k: Composition) -> Composition:
    """Merged counts: target level m collects every source level mapping to it."""
    if k.r != phi.source_levels:
        raise ValueError(f"{k} has {k.r} levels, map expects {phi.source_levels}")
    out = [0] * phi.target_levels
    for m, c in enumerate(k.counts):
        out[phi(m)] += c
    return Composition(out)


def coarsen_vertex(phi: CoarseningMap, x: Sequence[int]) -> Vertex:
    """Entrywise relabeling; lands in the multislice of the merged counts."""
    if max(x) >= phi.source_levels:
        raise ValueError(f"vertex {tuple(x)} uses levels beyond the map")
    return tuple(phi(v) for v in x)


def vertex_map(
    phi: CoarseningMap, k: Composition, budget: int | None = DEFAULT_BUDGET
) -> np.ndarray:
    """Rank-to-rank realization of the vertex coarsening (fine rank -> coarse rank)."""
    coarse = coarsen_composition(phi, k)
    relabeled = np.array(phi.table, dtype=np.int64)[vertex_array(k, budget)]
    return _ranks(coarse.counts, relabeled)


def intertwine_check(
    phi: CoarseningMap,
    k: Composition,
    f: Sequence,
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Exactness of (L' f) o phi = L (f o phi) for a coarse function f."""
    coarse = coarsen_composition(phi, k)
    vals = _values(coarse, f)
    vmap = vertex_map(phi, k, budget)
    lhs = np.asarray(apply_laplacian(coarse, vals, budget))[vmap]
    rhs = np.asarray(apply_laplacian(k, vals[vmap], budget))
    # Swap p of a fine vertex maps to swap p of its image, so both sides sum
    # the same values in the same order: float input agrees bit for bit too.
    return np.array_equal(lhs, rhs)


def intertwine_audit(
    phi: CoarseningMap,
    k: Composition,
    n_functions: int = 100,
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> dict:
    """Exact intertwining on a batch of random integer-valued coarse functions.

    Integer vectors are exact rationals, and both sides of the identity are
    integer linear maps, so the batched comparison below is an exact check.
    """
    coarse = coarsen_composition(phi, k)
    vmap = vertex_map(phi, k, budget)  # checks the fine budget, which bounds the coarse one
    rng = np.random.default_rng(seed)
    batch = rng.integers(-50, 51, size=(n_functions, coarse.cardinality()))
    coarse_lf = _laplacian_action(transposition_table(coarse, budget), batch)
    fine_lf = _laplacian_action(transposition_table(k, budget), batch[:, vmap])
    ok = np.array_equal(coarse_lf[:, vmap], fine_lf)
    return {
        "map": phi.to_json(),
        "fine": str(k),
        "coarse": str(coarse),
        "functions": n_functions,
        "all_exact": bool(ok),
    }


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
    tol: float = DEFAULT_TOL,
    dense_cap: int = DEFAULT_DENSE_CAP,
    budget: int | None = DEFAULT_BUDGET,
) -> ContainmentReport:
    """Every coarse Laplacian eigenvalue reappears in the fine spectrum.

    Also checks gap monotonicity: merging levels can only increase the gap
    (here both equal the particle count, so equality is what shows up).
    """
    coarse = coarsen_composition(phi, k)
    if k.cardinality() > dense_cap or coarse.cardinality() > dense_cap:
        raise ValueError("slice exceeds the dense eigensolver cap")
    fine_vals = laplacian_eigenvalues(k, dense_cap, budget)
    coarse_vals = laplacian_eigenvalues(coarse, dense_cap, budget)
    mismatch = 0.0
    for v in coarse_vals:
        gap_to_fine = float(np.abs(fine_vals - v).min())
        mismatch = max(mismatch, gap_to_fine)
    contained = mismatch <= tol * max(1.0, float(np.abs(coarse_vals).max()))
    gap_fine = spectral_gap(k, tol, dense_cap, budget) if not k.is_trivial else float("nan")
    gap_coarse = (
        spectral_gap(coarse, tol, dense_cap, budget) if not coarse.is_trivial else float("inf")
    )
    return ContainmentReport(
        fine=str(k),
        coarse=str(coarse),
        contained=contained,
        gap_fine=gap_fine,
        gap_coarse=gap_coarse,
        gap_monotone=gap_coarse >= gap_fine - tol * max(1.0, gap_fine),
        max_mismatch=mismatch,
    )


def is_coarser(
    coarse: Composition, fine: Composition, level_cap: int = SEARCH_LEVEL_CAP
) -> CoarseningMap | None:
    """Search for a surjection phi with phi(fine) = coarse; None if none exists.

    Exhaustive over all assignment tables, so it is exact for small level
    counts (the partial order is defined existentially).
    """
    if coarse.n != fine.n:
        return None
    s = fine.r
    r = coarse.r
    if s > level_cap:
        raise ValueError(f"{s} source levels exceed the search cap {level_cap}")
    if r > s:
        return None
    for table in itertools.product(range(r), repeat=s):
        if len(set(table)) != r:
            continue
        phi = CoarseningMap(table, r)
        if coarsen_composition(phi, fine).counts == coarse.counts:
            return phi
    return None


def all_coarsenings(
    k: Composition, level_cap: int = SEARCH_LEVEL_CAP
) -> dict[Composition, CoarseningMap]:
    """Strictly coarser compositions reachable from ``k``, with one witness each."""
    s = k.r
    if s > level_cap:
        raise ValueError(f"{s} source levels exceed the search cap {level_cap}")
    out: dict[Composition, CoarseningMap] = {}
    for r in range(2, s):
        for table in itertools.product(range(r), repeat=s):
            if len(set(table)) != r:
                continue
            phi = CoarseningMap(table, r)
            target = coarsen_composition(phi, k)
            if target not in out:
                out[target] = phi
    return out
