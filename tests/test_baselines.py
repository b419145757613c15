from dataclasses import replace

import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    NetScoreProvider,
    QuadraticReward,
    SmcConfig,
    TrainConfig,
    ancestral_sample,
    approx_guidance_sample,
    best_of_n,
    denoised_reward_gradient,
    make_swiss_roll,
    run_das,
    train_denoiser,
)
from das.diffusion import reverse_mean
from das.errors import GuidanceExplosionError, InputError
from das.rewards import fig1_bottom_reward, fig1_top_reward, swiss_roll_reward

ZERO2 = QuadraticReward.zero(2)


def _guidance_reference(provider, schedule, reward, alpha, n, seed):
    """Approximate guidance as plain ancestral sampling with a mean shift:
    the reverse-kernel mean plus sigma_t^2 / alpha times the denoised-reward
    gradient at the current point and level (x_t, t), then sigma_t times the
    step's noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, provider.dim))
    for t in range(schedule.steps, 0, -1):
        mu = reverse_mean(schedule, x, provider.score(x, t), t)
        sigma = schedule.sigma(t)
        shift = 0.0
        if sigma != 0.0:
            shift = (sigma**2) * (1.0 / alpha) * denoised_reward_gradient(reward, provider, schedule, x, t)[2]
        x = mu + shift + sigma * rng.standard_normal(x.shape)
    return x


@pytest.fixture(scope="module")
def small_net_3d(schedule):
    """A swiss-roll denoiser after 5 epochs: an MLP backbone that is quick to train."""
    return train_denoiser(make_swiss_roll(512, 0.1, 0), schedule, TrainConfig(epochs=5, seed=0))[0]


@pytest.mark.parametrize("n", [1, 7, 640])
@pytest.mark.parametrize("case", ["fig1-top", "fig1-bottom", "mlp"])
def test_guidance_equals_the_shifted_ancestral_chain(case, n, schedule, prior_2d, request):
    """The baseline, which runs the SMC transition and drops its weights,
    gives the bytes of the ancestral chain shifted by the guidance term."""
    if case == "mlp":
        provider = NetScoreProvider(request.getfixturevalue("small_net_3d"), schedule)
        reward, alpha = swiss_roll_reward(), 1.0
    else:
        provider = GmmScoreProvider(prior_2d, schedule)
        reward, alpha = (fig1_top_reward(), 1.0) if case == "fig1-top" else (fig1_bottom_reward(), 0.1)
    got = approx_guidance_sample(provider, schedule, reward, alpha, n, seed=n + 3)
    assert got.tobytes() == _guidance_reference(provider, schedule, reward, alpha, n, n + 3).tobytes()


def test_guidance_zero_reward_equals_ancestral(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    guided = approx_guidance_sample(provider, schedule, ZERO2, 1.0, 64, seed=7)
    plain = ancestral_sample(provider, schedule, 64, seed=7)
    np.testing.assert_array_equal(guided, plain)


def test_guidance_moves_mean_reward(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    guided = approx_guidance_sample(provider, schedule, reward, 1.0, 600, seed=5)
    plain = ancestral_sample(provider, schedule, 600, seed=5)
    assert reward.value(guided).mean() > reward.value(plain).mean()


def test_guidance_non_finite_gradient_names_the_chain(schedule, prior_2d):
    """A NaN gradient for one chain raises at the first step, naming that
    chain; an infinite one for another makes the magnitude inf, not nan."""
    provider = GmmScoreProvider(prior_2d, schedule)

    class Broken:
        value = fig1_top_reward().value

        def gradient(self, x):
            g = fig1_top_reward().gradient(x)
            g[3, 1] = np.nan
            g[5, 0] = -np.inf
            return g

    with pytest.raises(GuidanceExplosionError, match=r"t=100 in rows \[3, 5\] \(largest non-NaN \|grad\|=inf\)"):
        approx_guidance_sample(provider, schedule, Broken(), 1.0, 8, seed=0)


def _untempered(cfg, provider, schedule, reward, guided):
    return run_das(replace(cfg, temper_mode="off"), provider, schedule, reward, guided_proposal=guided)


def test_smc_no_temper_variants(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    cfg = SmcConfig(particles=16, seed=2)
    for guided in (True, False):
        ens, trace = _untempered(cfg, provider, schedule, fig1_top_reward(), guided)
        assert ens.positions.shape == (16, 2)
        assert all(r.lam == 1.0 for r in trace.rows)


def test_smc_no_temper_unguided_zero_reward_is_ancestral_law(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    cfg = SmcConfig(particles=16, seed=11)
    ens, trace = _untempered(cfg, provider, schedule, ZERO2, guided=False)
    assert np.all(trace.weighted_final.log_weights == 0.0)
    assert trace.resample_count() == 0


def test_smc_no_temper_guided_collapses_ess_more_often(schedule, prior_2d):
    """Full-strength guidance without tempering destabilizes the weights:
    across seeds its ESS dips below N/4 at least as often as tempered runs."""
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    n_low_untempered = 0
    n_low_tempered = 0
    for seed in range(15):
        cfg = SmcConfig(particles=16, seed=seed)
        _, tr_u = _untempered(cfg, provider, schedule, reward, guided=True)
        _, tr_t = run_das(cfg, provider, schedule, reward)
        n_low_untempered += int(tr_u.ess_series().min() < 4.0)
        n_low_tempered += int(tr_t.ess_series().min() < 4.0)
    assert n_low_untempered >= n_low_tempered


def test_best_of_one_is_ancestral(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    got = best_of_n(provider, schedule, fig1_top_reward(), 1, 16, seed=9)
    np.testing.assert_array_equal(got, ancestral_sample(provider, schedule, 16, seed=9))


def test_best_of_n_deterministic(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    a = best_of_n(provider, schedule, fig1_top_reward(), 4, 8, seed=1)
    b = best_of_n(provider, schedule, fig1_top_reward(), 4, 8, seed=1)
    np.testing.assert_array_equal(a, b)


def test_best_of_n_mean_reward_monotone(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    means, ses = [], []
    for k in (1, 4, 16):
        out = best_of_n(provider, schedule, reward, k, 500, seed=21)
        vals = reward.value(out)
        means.append(vals.mean())
        ses.append(vals.std() / np.sqrt(len(vals)))
    assert means[1] > means[0] - 2 * np.hypot(ses[0], ses[1])
    assert means[2] > means[1] - 2 * np.hypot(ses[1], ses[2])
    assert means[2] > means[0]


def test_best_of_n_argmax_invariant_under_monotone_transform(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    base = fig1_top_reward()

    class Warped:
        def value(self, x):
            return np.exp(0.5 * base.value(x)) + 3.0

        def gradient(self, x):
            raise NotImplementedError

    a = best_of_n(provider, schedule, base, 8, 40, seed=2)
    b = best_of_n(provider, schedule, Warped(), 8, 40, seed=2)
    np.testing.assert_array_equal(a, b)


def test_best_of_n_validates_counts(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    with pytest.raises(InputError):
        best_of_n(provider, schedule, fig1_top_reward(), 0, 4, seed=0)


def test_guidance_validates_the_count(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    with pytest.raises(InputError) as caught:
        approx_guidance_sample(provider, schedule, fig1_top_reward(), 1.0, 0, seed=0)
    assert str(caught.value) == "n must be an integer >= 1, got 0"
