"""Every number a library entry point takes is range-checked where it enters,
fail-closed: NaN, the infinities, bools and integers too large for a float
raise ``InputError`` naming the field, and so does a non-integer count or a
value below the field's bound."""

import numpy as np
import pytest

from das import (
    Gmm,
    MlpDenoiser,
    NoiseSchedule,
    OnlineConfig,
    SmcConfig,
    SurrogateConfig,
    TrainConfig,
    approx_guidance_sample,
    ancestral_sample,
    best_of_n,
    canonical_prior_2d,
    emd_capped,
    make_swiss_roll,
    run_das,
    tilt_quadratic,
)
from das.diffusion import GmmScoreProvider
from das.errors import DegenerateEnsembleError, InputError, check_range
from das.rewards import QuadraticReward, fig1_top_reward
from das.smc import derive_sweep_seed, geometric_lambdas, pooled_runs

PRIOR = canonical_prior_2d()
SCHEDULE = NoiseSchedule.linear()
REWARD = fig1_top_reward()
PROVIDER = GmmScoreProvider(PRIOR, SCHEDULE)

COUNT, ABOVE, AT_LEAST = "count", "above", "at least"

# (entry point, the field it checks, the field's kind of limit, its bound):
# ``build(value)`` passes ``value`` as that field and nothing else out of range
LIMITS = [
    *((SmcConfig, field, kind, low) for field, kind, low in (
        ("particles", COUNT, 1), ("alpha", ABOVE, 0), ("gamma", ABOVE, 0),
        ("ess_frac", ABOVE, 0), ("seed", COUNT, 0))),
    *((TrainConfig, field, kind, low) for field, kind, low in (
        ("learning_rate", ABOVE, 0), ("epochs", COUNT, 1), ("batch_size", COUNT, 1), ("seed", COUNT, 0))),
    *((SurrogateConfig, field, kind, low) for field, kind, low in (
        ("ridge", AT_LEAST, 0), ("beta", AT_LEAST, 0), ("members", COUNT, 1), ("seed", COUNT, 0))),
    *((OnlineConfig, field, kind, low) for field, kind, low in (
        ("rounds", COUNT, 1), ("budget", COUNT, 1), ("noise_std", AT_LEAST, 0), ("seed", COUNT, 0))),
    (lambda v: geometric_lambdas(v, 100), "gamma", ABOVE, 0),
    (NoiseSchedule.linear, "steps", COUNT, 1),
    (lambda v: tilt_quadratic(PRIOR, REWARD, v), "alpha", ABOVE, 0),
    (lambda v: ancestral_sample(PROVIDER, SCHEDULE, v, 0), "n", COUNT, 1),
    (lambda v: PRIOR.sample(v, 0), "n", COUNT, 1),
    (make_swiss_roll, "n", COUNT, 1),
    (lambda v: make_swiss_roll(8, v), "noise", AT_LEAST, 0),
    (lambda v: approx_guidance_sample(PROVIDER, SCHEDULE, REWARD, 1.0, v), "n", COUNT, 1),
    (lambda v: approx_guidance_sample(PROVIDER, SCHEDULE, REWARD, v, 4), "alpha", ABOVE, 0),
    (lambda v: best_of_n(PROVIDER, SCHEDULE, REWARD, v, 4), "n_candidates", COUNT, 1),
    (lambda v: best_of_n(PROVIDER, SCHEDULE, REWARD, 4, v), "n_outputs", COUNT, 1),
    (lambda v: run_das(SmcConfig(particles=4), PROVIDER, SCHEDULE, REWARD, seeds=[0, v]), "seed", COUNT, 0),
    (lambda v: pooled_runs(SmcConfig(particles=4), PROVIDER, SCHEDULE, REWARD, [0], v), "samples", COUNT, 1),
    (derive_sweep_seed, "seed", COUNT, 0),
    (lambda v: MlpDenoiser(v, 100), "d", COUNT, 1),
    (lambda v: MlpDenoiser(2, v), "t_max", COUNT, 1),
    (lambda v: MlpDenoiser(2, 100, hidden=v), "hidden", COUNT, 1),
    (lambda v: MlpDenoiser(2, 100, seed=v), "seed", COUNT, 0),
    (lambda v: emd_capped(np.zeros((2, 2)), np.ones((2, 2)), seed=v), "seed", COUNT, 0),
    (lambda v: derive_sweep_seed(0, 1, v), "path index", COUNT, 0),
]


def _cases():
    for entry, field, kind, low in LIMITS:
        below = low - 1 if kind == COUNT else (low if kind == ABOVE else low - 0.5)
        values = [float("nan"), float("inf"), True, below, 10**400] + ([2.5] if kind == COUNT else [])
        # a config class takes the value as its field, a function as its argument
        build = (lambda v, cls=entry, field=field: cls(**{field: v})) if isinstance(entry, type) else entry
        for value in values:
            yield pytest.param(build, field, kind, low, value, id=f"{entry.__name__}-{field}-{str(value)[:8]}")


@pytest.mark.parametrize("build, field, kind, low, value", _cases())
def test_an_out_of_range_number_raises_input_error_naming_the_field(build, field, kind, low, value):
    with pytest.raises(InputError) as caught:
        build(value)
    what = "an integer >=" if kind == COUNT else ("a finite number >" if kind == ABOVE else "a finite number >=")
    assert str(caught.value) == f"{field} must be {what} {low}, got {value!r}"


def test_counts_take_numpy_integers_and_numbers_take_integers():
    config = SmcConfig(particles=np.int64(8), alpha=2, gamma=np.float64(0.02), seed=np.uint64(2**64 - 1))
    assert config.particles == 8 and config.alpha == 2
    SurrogateConfig(ridge=0, beta=0.0)
    OnlineConfig(noise_std=0.0)


def test_check_range_bounds_open_and_closed():
    check_range("x", 0.0, 0)
    with pytest.raises(InputError, match="x must be a finite number > 0, got 0.0"):
        check_range("x", 0.0, 0, strict=True)
    with pytest.raises(InputError, match=r"x must be a finite number >= 0, got np.float32\(inf\)"):
        check_range("x", np.float32("inf"), 0)
    with pytest.raises(InputError, match="x must be a finite number >= 0, got 'big'"):
        check_range("x", "big", 0)


def test_ess_frac_above_one_is_rejected():
    with pytest.raises(InputError) as caught:
        SmcConfig(ess_frac=1.5)
    assert str(caught.value) == "ess_frac must be at most 1, got 1.5"


WEIGHTS, FINITE_GMM = "weights must be non-negative and sum to 1 within 1e-12", "means and covariances must be finite"
FINITE_REWARD, BETAS = "A, b and c must be finite", "betas must lie strictly in (0, 1)"


@pytest.mark.parametrize("build, message", [
    (lambda: Gmm([np.nan, 1.0], np.zeros((2, 2)), np.stack([np.eye(2)] * 2)), WEIGHTS),
    (lambda: Gmm([1.0], [[0.0, np.nan]], [np.eye(2)]), FINITE_GMM),
    (lambda: Gmm([1.0], [[0.0, 0.0]], [[[1.0, 0.0], [0.0, np.nan]]]), FINITE_GMM),
    (lambda: Gmm([1.0], [[0.0, np.inf]], [np.eye(2)]), FINITE_GMM),
    (lambda: QuadraticReward(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2)), FINITE_REWARD),
    (lambda: QuadraticReward(np.eye(2), np.array([0.0, np.nan])), FINITE_REWARD),
    (lambda: QuadraticReward(np.eye(2), np.zeros(2), np.inf), FINITE_REWARD),
    (lambda: NoiseSchedule([0.1, np.nan]), BETAS),
    (lambda: NoiseSchedule.linear(beta_end=np.nan), BETAS),
], ids=["gmm-weights", "gmm-means", "gmm-covariances", "gmm-inf-means", "reward-a", "reward-b", "reward-c",
        "schedule-betas", "schedule-beta-end"])
def test_an_array_holding_a_nan_or_an_infinity_is_rejected(build, message):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == message


def test_online_config_rejects_a_budget_below_the_rounds_as_uneven():
    with pytest.raises(InputError) as caught:
        OnlineConfig(rounds=8, budget=4)
    assert str(caught.value) == "budget must divide evenly over rounds"


def test_a_tiny_finite_alpha_is_legal_and_fails_at_run_time():
    """alpha = 1e-300 passes the range check: exp(r/alpha) overflows during
    the run, which stops with the typed ensemble error."""
    config = SmcConfig(particles=16, alpha=1e-300, seed=0)
    with pytest.raises(DegenerateEnsembleError), np.errstate(all="ignore"):
        run_das(config, PROVIDER, SCHEDULE, REWARD)
