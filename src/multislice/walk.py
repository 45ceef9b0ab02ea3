"""Random transposition walk on a multislice.

Discrete-time chain: at each step a position pair is drawn uniformly and
the two entries are swapped (a self-loop when they carry the same level).
The one-step operator is T = I - L / C(N,2), so the walk's slowest mode
decays by 1 - 2/(N-1) per step once the gap certificate pins the Laplacian
gap at N.  The uniform measure is stationary (the chain is doubly
stochastic), which the occupation statistics can verify by chi-square.

A run draws all its position pairs up front and computes every visited
level vector at once, as a blocked scan of the product of the drawn
transpositions; vertex ranks, where needed, come from one bulk call, which
looks them up in two half tables on long runs without enumerating the slice.
Autocorrelations sum through ``np.einsum``, not BLAS, so a run uses one core
and its floats do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import DEFAULT_BUDGET, BudgetError, Composition, _ranks, check_budget, vertex_unrank
from .operators import TABLE_ENTRY_CAP
from .spectral import gap_eigenbasis

RNG_ID = "numpy:PCG64"

#: Occupation counts are only tracked up to this many distinct vertices.
OCCUPATION_CAP = 10**6

#: Raw trajectory dumps refuse runs longer than this.
TRAJECTORY_DUMP_CAP = 2_000_000

#: Batches of the trajectory behind the standard errors.
N_BATCHES = 16


@dataclass(frozen=True)
class WalkConfig:
    """Reproducible description of one simulation run."""

    composition: Composition
    steps: int
    seed: int
    burn_in: int = 0
    thin: int = 1
    observable: object = "gap"
    lags: int = 12
    dump_trajectory: bool = False

    def __post_init__(self):
        if self.steps <= self.burn_in or self.burn_in < 0:
            raise ValueError("need steps > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if self.lags < 1:
            raise ValueError("need at least one lag")
        if self.dump_trajectory and self.steps + 1 > TRAJECTORY_DUMP_CAP:
            raise ValueError(
                f"trajectory dump capped at {TRAJECTORY_DUMP_CAP} steps; got {self.steps}"
            )


@dataclass
class WalkStats:
    """Observable statistics and occupation counts of one run."""

    composition: str
    steps: int
    burn_in: int
    thin: int
    seed: int
    rng_id: str
    observable_label: str
    occupation: np.ndarray | None
    lags: np.ndarray
    autocorr: np.ndarray
    autocorr_stderr: np.ndarray
    ratio: float | None
    ratio_stderr: float | None
    periodic: bool
    degenerate: bool
    n_batches: int
    final_state: tuple[int, ...] = field(default=())
    states: np.ndarray | None = None

    def csv_rows(self) -> list[tuple[int, float, float]]:
        return [
            (int(l), float(a), float(s))
            for l, a, s in zip(self.lags, self.autocorr, self.autocorr_stderr)
        ]

    def as_dict(self) -> dict:
        return {
            "composition": self.composition,
            "steps": self.steps,
            "burn_in": self.burn_in,
            "thin": self.thin,
            "seed": self.seed,
            "rng_id": self.rng_id,
            "observable": self.observable_label,
            "lags": [int(v) for v in self.lags],
            "autocorr": [float(v) for v in self.autocorr],
            "autocorr_stderr": [float(v) for v in self.autocorr_stderr],
            "ratio": self.ratio,
            "ratio_stderr": self.ratio_stderr,
            "periodic": self.periodic,
            "degenerate": self.degenerate,
            "n_batches": self.n_batches,
            "occupation": None if self.occupation is None else [int(c) for c in self.occupation],
            "trajectory": None if self.states is None else [int(s) for s in self.states],
        }


def _gap_observable(k: Composition) -> tuple[str, tuple[Fraction, ...], int]:
    basis = gap_eigenbasis(k, budget=None)
    return ("gap-eigenfunction[0]@pos0", basis.generators[0], 0)


def _autocorr(traj: np.ndarray, lags: np.ndarray) -> np.ndarray | None:
    n = len(traj)
    centered = traj - traj.mean()
    # einsum's own loop, not BLAS: one core, and sums that do not depend on the BLAS threads
    denom = float(np.einsum("i,i", centered, centered))
    if denom == 0.0:
        return None
    out = np.full(len(lags), np.nan)
    for idx, lag in enumerate(lags):
        if lag >= n:
            continue
        # 1/(n-lag) numerator normalization against 1/n variance
        out[idx] = float(np.einsum("i,i", centered[:-lag], centered[lag:])) * n / ((n - lag) * denom)
    return out


def _fit_ratio(rhos: np.ndarray, nsamples: int) -> tuple[float, bool]:
    """Geometric decay ratio from log-autocorrelation least squares.

    Lags are used while the estimate sits above the sampling noise floor.
    A negative lag-1 autocorrelation marks period-2 alternation; it is
    reported as the ratio itself and excluded from geometric fitting.
    """
    if rhos[0] <= 0:
        return float(rhos[0]), True
    floor = max(0.05, 4.0 / math.sqrt(nsamples))
    usable = 0
    while usable < len(rhos) and rhos[usable] > floor:
        usable += 1
    if usable <= 1:
        return float(rhos[0]), False
    lags = np.arange(1, usable + 1, dtype=np.float64)
    slope = np.polyfit(lags, np.log(rhos[:usable]), 1)[0]
    return float(math.exp(slope)), False


def _walk_levels(x0: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Level vector after every step: row t is the state after the first t draws.

    Draw p swaps the two positions of pair p of ``transposition_pairs``.  The
    T steps are cut into C blocks of B ~ sqrt(T) / 4, the last one padded with
    swaps of position 0 with itself.  B column swaps on C identity rows give
    every block's net permutation; a doubling scan, ceil(log2 C) gathers of
    all C rows, composes them into every block's starting levels; and B more
    column swaps replay all blocks at once from those starts, one row item per
    step, into the (T+1, N) result, of ``x0``'s dtype.  Python iterates
    O(sqrt T) times.
    """
    n, steps = len(x0), len(draws)
    width = max(1, math.isqrt(steps) // 4)
    blocks = -(-steps // width)
    ends = np.zeros((2, blocks * width), dtype=np.min_scalar_type(n - 1))  # padding swaps 0 with 0
    ends[0, :steps], ends[1, :steps] = (p.astype(ends.dtype)[draws] for p in np.triu_indices(n, 1))
    ends = ends.reshape(2, blocks, width).transpose(2, 0, 1).copy()  # ends[b]: step b of every block
    offsets = np.arange(blocks) * n
    levels = np.empty((blocks * width + 1, n), dtype=x0.dtype)  # the padding's rows are cut off
    levels[0] = x0
    recorded = levels.view(np.dtype((np.void, n * x0.itemsize)))

    def sweep(rows: np.ndarray, record: bool) -> None:
        flat = rows.reshape(-1)
        for b in range(width):
            i, j = offsets + ends[b, 0], offsets + ends[b, 1]
            flat[i], flat[j] = flat[j], flat[i]
            if record:
                recorded[1 + b :: width] = rows.view(recorded.dtype)

    scan = np.tile(np.arange(n, dtype=np.min_scalar_type(n - 1)), (blocks, 1))
    sweep(scan, record=False)
    shift = 1
    while shift < blocks:  # scan[c] becomes the product of the first c + 1 block permutations
        scan[shift:] = scan[:-shift].reshape(-1)[scan[shift:] + offsets[:-shift, None]]
        shift *= 2
    starts = np.empty((blocks, n), dtype=x0.dtype)
    starts[:1] = x0
    starts[1:] = x0[scan[:-1]]
    sweep(starts, record=True)
    return levels[: steps + 1]


def simulate(cfg: WalkConfig, budget: int | None = DEFAULT_BUDGET) -> WalkStats:
    """Run the chain from the rank-0 vertex with a seeded generator.

    Fully deterministic given the config.  Every slice walks on level
    vectors through :func:`_walk_levels`.  Slices with |V| C(N,2) at most
    ``TABLE_ENTRY_CAP`` also rank the visited states, which occupation
    counts, trajectory dumps and custom observables need; larger slices
    track the gap observable only.
    """
    k = cfg.composition
    if k.is_trivial:
        raise ValueError(f"composition {k} is trivial; the walk never moves")
    size = check_budget(k, budget)
    n_pairs = math.comb(k.n, 2)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    rankable = size * n_pairs <= TABLE_ENTRY_CAP
    too_large = f"|V| C(N,2) = {size * n_pairs} is over TABLE_ENTRY_CAP = {TABLE_ENTRY_CAP}"
    if isinstance(cfg.observable, str) and cfg.observable == "gap":
        label, generator, obs_pos = _gap_observable(k)
        obs_values = None
    else:
        if not rankable:
            raise BudgetError(f"custom observables need ranked states: {too_large}")
        label = "custom"
        obs_values = np.asarray(cfg.observable, dtype=np.float64)
        if obs_values.shape != (size,):
            raise ValueError("custom observable must give one value per vertex")
    if cfg.dump_trajectory and not rankable:
        raise BudgetError(f"trajectory dump needs ranked states: {too_large}")

    x0 = np.array(vertex_unrank(0, k), dtype=np.min_scalar_type(k.r - 1))
    levels = _walk_levels(x0, rng.integers(0, n_pairs, size=cfg.steps))  # draws freed before ranking
    occupied = rankable and size <= OCCUPATION_CAP
    ranked = occupied or obs_values is not None or cfg.dump_trajectory
    ranks = _ranks(k.counts, levels) if ranked else None
    if obs_values is None:
        gvals = np.array([float(v) for v in generator], dtype=np.float64)
        traj = gvals[levels[cfg.burn_in:, obs_pos]]
    else:
        traj = obs_values[ranks[cfg.burn_in:]]
    occupation = np.bincount(ranks[cfg.burn_in:: cfg.thin], minlength=size) if occupied else None

    lags = np.arange(1, cfg.lags + 1)
    rhos = _autocorr(traj, lags)
    degenerate = rhos is None
    if degenerate:
        autocorr = np.full(cfg.lags, np.nan)
        autocorr_stderr = np.full(cfg.lags, np.nan)
        ratio = None
        ratio_stderr = None
        periodic = False
    else:
        autocorr = rhos
        # batch the trajectory for standard errors of both the rhos and the ratio
        seg = len(traj) // N_BATCHES
        batch_rhos = []
        batch_ratios = []
        # a batch of fewer than two values has no autocorrelation: skip them all
        for b in range(N_BATCHES if seg >= 2 else 0):
            part = traj[b * seg: (b + 1) * seg]
            r = _autocorr(part, lags)
            if r is None or np.isnan(r[0]):
                continue
            batch_rhos.append(r)
            batch_ratios.append(_fit_ratio(r, seg)[0])
        if len(batch_rhos) >= 2:
            stacked = np.vstack(batch_rhos)
            autocorr_stderr = stacked.std(axis=0, ddof=1) / math.sqrt(len(batch_rhos))
            ratio_stderr = float(np.std(batch_ratios, ddof=1) / math.sqrt(len(batch_ratios)))
        else:
            autocorr_stderr = np.full(cfg.lags, np.nan)
            ratio_stderr = None
        ratio, periodic = _fit_ratio(rhos, len(traj))

    return WalkStats(
        composition=str(k),
        steps=cfg.steps,
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        seed=cfg.seed,
        rng_id=RNG_ID,
        observable_label=label,
        occupation=occupation,
        lags=lags,
        autocorr=autocorr,
        autocorr_stderr=autocorr_stderr,
        ratio=ratio,
        ratio_stderr=ratio_stderr,
        periodic=periodic,
        degenerate=degenerate,
        n_batches=N_BATCHES,
        final_state=tuple(levels[-1].tolist()),
        states=ranks if cfg.dump_trajectory else None,
    )


def relaxation_estimate(stats: WalkStats) -> tuple[float, float]:
    """Geometric decay ratio and standard error from a finished run.

    The comparison target for a gap-eigenfunction observable is
    1 - 2/(N-1), supplied by the certified Laplacian gap.
    """
    if stats.degenerate:
        raise ValueError("observable had zero variance; no relaxation to estimate")
    stderr = stats.ratio_stderr if stats.ratio_stderr is not None else float("nan")
    return float(stats.ratio), float(stderr)


def chi_square_uniform(counts: np.ndarray) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom against the uniform law."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("no observations")
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, counts.size - 1
