"""Tempered SMC sampling from reward-tilted diffusion models, at toy scale."""

__version__ = "0.1.0"

from .baselines import approx_guidance_sample, best_of_n
from .diffusion import GmmScoreProvider, ancestral_sample
from .gmm import (
    Gmm,
    canonical_prior_2d,
    diffuse,
    expected_quadratic_reward,
    isotropic_gmm,
    tilt_quadratic,
)
from .metrics import emd_capped, emd_exact, summary_stats
from .online import (
    OnlineConfig,
    SurrogateConfig,
    fit_surrogate,
    run_online_loop,
)
from .rewards import QuadraticReward, denoised_reward
from .schedule import NoiseSchedule
from .scorenet import MlpDenoiser, NetScoreProvider, TrainConfig, train_denoiser
from .smc import (
    ParticleEnsemble,
    SmcConfig,
    ess,
    pooled_das,
    resample,
    run_das,
    solve_for_delta,
    transition,
)
from .swissroll import make_swiss_roll

__all__ = [
    "Gmm",
    "GmmScoreProvider",
    "MlpDenoiser",
    "NetScoreProvider",
    "NoiseSchedule",
    "OnlineConfig",
    "ParticleEnsemble",
    "QuadraticReward",
    "SmcConfig",
    "SurrogateConfig",
    "TrainConfig",
    "ancestral_sample",
    "approx_guidance_sample",
    "best_of_n",
    "canonical_prior_2d",
    "denoised_reward",
    "diffuse",
    "emd_capped",
    "emd_exact",
    "ess",
    "expected_quadratic_reward",
    "fit_surrogate",
    "isotropic_gmm",
    "make_swiss_roll",
    "pooled_das",
    "resample",
    "run_das",
    "run_online_loop",
    "solve_for_delta",
    "summary_stats",
    "tilt_quadratic",
    "train_denoiser",
    "transition",
]
