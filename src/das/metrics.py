"""Earth Mover's Distance between equal-size sample sets, plus summary stats.

The EMD is the exact assignment-problem optimum under Euclidean ground
distances, normalized by the number of points.  Exact solving is capped at
1024 points; larger pooled sets are subsampled deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InputError, check_range
from .gmm import Gmm

EMD_CAP = 1024


def emd_exact(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cost of the optimal perfect matching between two point sets."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise InputError(f"sample sets must match in shape: {a.shape} vs {b.shape}")
    if a.shape[0] > EMD_CAP:
        raise InputError(f"exact solver capped at {EMD_CAP} points, got {a.shape[0]}")
    cost = cdist(a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def emd_capped(a: np.ndarray, b: np.ndarray, seed: int = 0) -> float:
    """EMD with seed-fixed subsampling of sets larger than the solver cap."""
    check_range("seed", seed, 0, count=True)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = min(a.shape[0], b.shape[0], EMD_CAP)
    rng = np.random.default_rng(seed)
    if a.shape[0] > n:
        a = a[rng.choice(a.shape[0], size=n, replace=False)]
    if b.shape[0] > n:
        b = b[rng.choice(b.shape[0], size=n, replace=False)]
    return emd_exact(a, b)


@dataclass
class SummaryStats:
    mean_reward: float
    reward_std: float
    per_mode_counts: list[int]


def summary_stats(samples: np.ndarray, reward, oracle: Gmm | None = None) -> SummaryStats:
    """Reward moments of a sample set and, when the target oracle is a
    mixture, per-mode counts by highest component responsibility."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    vals = reward.value(samples)
    counts: list[int] = []
    if oracle is not None:
        assign = np.argmax(oracle.responsibilities(samples), axis=1)
        counts = np.bincount(assign, minlength=oracle.n_components).tolist()
    return SummaryStats(
        mean_reward=float(np.mean(vals)),
        reward_std=float(np.std(vals)),
        per_mode_counts=counts,
    )
