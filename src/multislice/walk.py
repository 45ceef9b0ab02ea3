"""Random transposition walk on a multislice.

Discrete-time chain: at each step a position pair is drawn uniformly and
the two entries are swapped (a self-loop when they carry the same level).
The one-step operator is T = I - L / C(N,2), so the walk's slowest mode
decays by 1 - 2/(N-1) per step once the gap certificate pins the Laplacian
gap at N.  The uniform measure is stationary (the chain is doubly
stochastic), which the occupation statistics can verify by chi-square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import DEFAULT_BUDGET, BudgetError, Composition, check_budget, vertex_unrank
from .operators import (
    TABLE_ENTRY_CAP,
    _result,
    _values,
    apply_laplacian,
    transposition_pairs,
    transposition_table,
    vertex_array,
)
from .spectral import gap_eigenbasis

RNG_ID = "numpy:PCG64"

#: Occupation counts are only tracked up to this many distinct vertices.
OCCUPATION_CAP = 10**6

#: Raw trajectory dumps refuse runs longer than this.
TRAJECTORY_DUMP_CAP = 2_000_000


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
    n_batches: int = 16
    track_occupation: bool = True
    dump_trajectory: bool = False

    def __post_init__(self):
        if self.steps <= self.burn_in or self.burn_in < 0:
            raise ValueError("need steps > burn_in >= 0")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if self.lags < 1 or self.n_batches < 2:
            raise ValueError("need at least one lag and two batches")
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

    @property
    def empirical_distribution(self) -> np.ndarray | None:
        if self.occupation is None:
            return None
        return self.occupation / self.occupation.sum()

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


def step(x: Sequence[int], rng: np.random.Generator) -> tuple[int, ...]:
    """One move: swap a uniformly random position pair (self-loop allowed)."""
    n = len(x)
    if n < 2:
        raise ValueError("need at least two positions")
    pairs = transposition_pairs(n)
    i, j = pairs[int(rng.integers(0, len(pairs)))]
    y = list(x)
    y[i], y[j] = y[j], y[i]
    return tuple(y)


def transition_expectation(k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET):
    """E[f(next state) | current state], exact for rational input."""
    vals = _values(k, f)
    lf = np.asarray(apply_laplacian(k, vals, budget))
    return _result(vals - lf / math.comb(k.n, 2))


def _gap_observable(k: Composition) -> tuple[str, tuple[Fraction, ...], int]:
    basis = gap_eigenbasis(k, budget=None)
    return ("gap-eigenfunction[0]@pos0", basis.generators[0], 0)


def _autocorr(traj: np.ndarray, lags: np.ndarray) -> np.ndarray | None:
    n = len(traj)
    centered = traj - traj.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return None
    out = np.full(len(lags), np.nan)
    for idx, lag in enumerate(lags):
        if lag >= n:
            continue
        # 1/(n-lag) numerator normalization against 1/n variance
        out[idx] = float(centered[:-lag] @ centered[lag:]) * n / ((n - lag) * denom)
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


def simulate(cfg: WalkConfig, budget: int | None = DEFAULT_BUDGET) -> WalkStats:
    """Run the chain from the rank-0 vertex with a seeded generator.

    Fully deterministic given the config.  Small slices walk on vertex
    ranks through the precomputed swap table and track occupation counts;
    larger slices walk on tuples and track the observable only.
    """
    k = cfg.composition
    if k.is_trivial:
        raise ValueError(f"composition {k} is trivial; the walk never moves")
    size = check_budget(k, budget)
    n_pairs = math.comb(k.n, 2)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    draws = rng.integers(0, n_pairs, size=cfg.steps)

    use_table = size * n_pairs <= TABLE_ENTRY_CAP
    if cfg.observable == "gap":
        label, generator, obs_pos = _gap_observable(k)
        obs_values = None
    else:
        if not use_table:
            raise BudgetError("custom observables need the rank table; slice too large")
        label = "custom"
        generator = None
        obs_pos = 0
        obs_values = np.asarray(cfg.observable, dtype=np.float64)
        if obs_values.shape != (size,):
            raise ValueError("custom observable must give one value per vertex")

    if use_table:
        table = transposition_table(k, budget).tolist()
        states = np.empty(cfg.steps + 1, dtype=np.int64)
        s = 0
        states[0] = 0
        for t, p in enumerate(draws.tolist()):
            s = table[s][p]
            states[t + 1] = s
        if obs_values is None:
            gvals = np.array([float(v) for v in generator], dtype=np.float64)
            obs_values = gvals[vertex_array(k, budget)[:, obs_pos]]
        traj = obs_values[states[cfg.burn_in:]]
        occupation = None
        if cfg.track_occupation and size <= OCCUPATION_CAP:
            occupation = np.bincount(states[cfg.burn_in:: cfg.thin], minlength=size)
        final_state = vertex_unrank(int(states[-1]), k)
        dumped = states.copy() if cfg.dump_trajectory else None
    else:
        if cfg.dump_trajectory:
            raise BudgetError("trajectory dump needs the rank table; slice too large")
        pairs = transposition_pairs(k.n)
        x = list(vertex_unrank(0, k))
        gvals = [float(v) for v in generator]
        traj = np.empty(cfg.steps + 1 - cfg.burn_in)
        out_idx = 0
        if cfg.burn_in == 0:
            traj[out_idx] = gvals[x[obs_pos]]
            out_idx += 1
        for t, p in enumerate(draws.tolist()):
            i, j = pairs[p]
            x[i], x[j] = x[j], x[i]
            if t + 1 >= cfg.burn_in:
                traj[out_idx] = gvals[x[obs_pos]]
                out_idx += 1
        occupation = None
        final_state = tuple(x)
        dumped = None

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
        seg = len(traj) // cfg.n_batches
        batch_rhos = []
        batch_ratios = []
        for b in range(cfg.n_batches):
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
        n_batches=cfg.n_batches,
        final_state=final_state,
        states=dumped,
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
