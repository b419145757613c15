"""Comparison samplers: single-chain approximate guidance and best-of-N
selection.  (Untempered SMC is ``run_das`` with ``temper_mode='off'``.)

Approximate guidance is the SMC proposal of :func:`das.smc.transition` at
full temperature with its weights dropped, so the baseline and the sampler
draw from one guided proposal, shifted by the denoised-reward gradient at
(x_t, t), and make one provider call per step.  Best-of-N selects among
plain ancestral chains.  With the reward switched off each coincides with
plain ancestral sampling.
"""

from __future__ import annotations

import numpy as np

from .diffusion import ScoreProvider, ancestral_sample
from .errors import check_range
from .rewards import RewardModel, denoised_reward_gradient
from .schedule import NoiseSchedule
from .smc import transition


def approx_guidance_sample(
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    alpha: float,
    n: int = 1,
    seed=0,
) -> np.ndarray:
    """Reward-guided ancestral sampling: x_T ~ N(0, I), then at every step the
    proposal of :func:`das.smc.transition` at lambda = 1, the reverse-kernel
    mean shifted by sigma_t^2 / alpha times the gradient of the denoised
    reward at the current point and level (x_t, t).  One provider call per
    step, as in the sampler.  No weighting, no resampling; chains are
    independent and draw x_T and each step's noise from one generator, as
    :func:`ancestral_sample` does.
    """
    check_range("n", n, 1, count=True)
    check_range("alpha", alpha, 0, strict=True)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, provider.dim))
    r_hat, score, grad = denoised_reward_gradient(reward, provider, schedule, x, schedule.steps)
    unweighted = np.zeros(n)
    for t in range(schedule.steps, 0, -1):
        x, score, grad, r_hat, _ = transition(
            x, score, grad, r_hat, unweighted, 1.0, 1.0, rng.standard_normal(x.shape), t,
            provider=provider, schedule=schedule, reward=reward, alpha=alpha,
        )
    return x


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
    check_range("n_candidates", n_candidates, 1, count=True)
    check_range("n_outputs", n_outputs, 1, count=True)
    flat = ancestral_sample(provider, schedule, n_outputs * n_candidates, seed)
    pool = flat.reshape(n_outputs, n_candidates, provider.dim)
    vals = reward.value(flat).reshape(n_outputs, n_candidates)
    best = np.argmax(vals, axis=1)
    return pool[np.arange(n_outputs), best]
