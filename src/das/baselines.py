"""Comparison samplers: single-chain approximate guidance and best-of-N
selection.  (Untempered SMC is ``run_das`` with ``temper_mode='off'``.)

Both share the diffusion core, so with the reward switched off each
coincides with plain ancestral sampling.
"""

from __future__ import annotations

import numpy as np

from .diffusion import ScoreProvider, ancestral_sample
from .errors import GuidanceExplosionError, InputError
from .rewards import RewardModel, denoised_reward_gradient
from .schedule import NoiseSchedule


def approx_guidance_sample(
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    alpha: float,
    guidance_scale: float = 1.0,
    n: int = 1,
    seed=0,
) -> np.ndarray:
    """Reward-guided ancestral sampling: the reverse-kernel mean is shifted by
    sigma_t^2 (guidance_scale / alpha) times the denoised-reward gradient.
    No weighting, no resampling; chains are independent.

    No extra scale constants are applied at toy scale, so the default
    ``guidance_scale=1`` is the plain approximate-guidance baseline.
    """

    def shift(x, t):
        sigma = schedule.sigma(t)
        if sigma == 0.0 or guidance_scale == 0.0:
            return 0.0
        grad = denoised_reward_gradient(reward, provider, schedule, x, t - 1)
        GuidanceExplosionError.check(t, grad)
        return (sigma**2) * (guidance_scale / alpha) * grad

    return ancestral_sample(provider, schedule, n, seed, guidance=shift)


def best_of_n(
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    n_candidates: int,
    n_outputs: int,
    seed=0,
) -> np.ndarray:
    """For each output, run independent unguided chains and keep the final
    sample with the highest reward."""
    if n_candidates < 1:
        raise InputError("need n_candidates >= 1")
    if n_outputs < 1:
        raise InputError("need n_outputs >= 1")
    flat = ancestral_sample(provider, schedule, n_outputs * n_candidates, seed)
    pool = flat.reshape(n_outputs, n_candidates, provider.dim)
    vals = reward.value(flat).reshape(n_outputs, n_candidates)
    best = np.argmax(vals, axis=1)
    return pool[np.arange(n_outputs), best]
