import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    OnlineConfig,
    SmcConfig,
    SurrogateConfig,
    expected_quadratic_reward,
    fit_surrogate,
    run_online_loop,
    tilt_quadratic,
)
from das.errors import InputError
from das.online import OnlineRoundError, OptimisticSurrogate, PolyFeatures, SurrogateModel
from das.rewards import fig1_top_reward


def make_data(n, reward, noise=0.0, seed=0, scale=2.0, d=2):
    rng = np.random.default_rng(seed)
    xs = scale * rng.normal(size=(n, d))
    ys = reward.value(xs) + noise * rng.standard_normal(n)
    return xs, ys


def test_poly_features_shape_and_jacobian():
    feats = PolyFeatures(2)
    assert feats.size == 6
    x = np.random.default_rng(0).normal(size=(5, 2))
    phi = feats(x)
    assert phi.shape == (5, 6)
    jac = feats.jacobian(x)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (feats(x + e) - feats(x - e)) / (2 * h)
        assert np.abs(jac[:, :, j] - fd).max() < 1e-8


def test_fit_exact_on_noiseless_quadratic():
    """Degree-2 features span quadratics, so a barely-regularized fit must
    reproduce the truth to numerical precision on held-out points."""
    reward = fig1_top_reward()
    data = make_data(200, reward, noise=0.0, seed=1)
    model = fit_surrogate(*data, SurrogateConfig(ridge=1e-9))
    xs = np.linspace(-3, 3, 21)
    grid = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
    pred = model.predict(grid)
    truth = reward.value(grid)
    rel_rmse = np.sqrt(np.mean((pred - truth) ** 2)) / (np.sqrt(np.mean(truth**2)) + 1e-12)
    assert rel_rmse < 1e-6


def test_fit_constant_observations():
    xs = np.random.default_rng(0).normal(size=(50, 2))
    model = fit_surrogate(xs, np.full(50, 3.0), SurrogateConfig(ridge=1e-9))
    pred = model.predict(np.random.default_rng(1).normal(size=(20, 2)))
    np.testing.assert_allclose(pred, 3.0, atol=1e-6)


def test_fit_needs_enough_points():
    with pytest.raises(InputError):
        fit_surrogate(*make_data(2, fig1_top_reward()), SurrogateConfig())


def test_bootstrap_degenerate_ensemble_matches_point_estimate():
    reward = fig1_top_reward()
    data = make_data(100, reward, noise=0.1, seed=3)
    ucb = fit_surrogate(*data, SurrogateConfig(mode="ucb", ridge=1e-6))
    # a single member fitted on the full dataset: same weights as the point fit
    degenerate = SurrogateModel(
        features=ucb.features,
        weights=ucb.weights,
        gram_inv=ucb.gram_inv,
        beta=1.0,
        mode="bootstrap",
        member_weights=ucb.weights[None, :],
    )
    x = np.random.default_rng(4).normal(size=(10, 2))
    np.testing.assert_allclose(degenerate.predict(x), ucb.predict(x), atol=1e-12)
    np.testing.assert_allclose(degenerate.bonus(x), 0.0, atol=1e-10)


def test_ucb_bonus_larger_far_from_data():
    reward = fig1_top_reward()
    xs, ys = make_data(150, reward, noise=0.1, seed=5, scale=1.0)
    model = fit_surrogate(xs, ys, SurrogateConfig(mode="ucb"))
    centroid = xs.mean(axis=0, keepdims=True)
    far = centroid + np.array([[8.0, -8.0]])
    assert model.bonus(far)[0] > model.bonus(centroid)[0]


def test_ucb_bonus_zero_beta():
    data = make_data(50, fig1_top_reward(), seed=6)
    model = fit_surrogate(*data, SurrogateConfig(mode="ucb", beta=0.0))
    x = np.random.default_rng(0).normal(size=(9, 2))
    np.testing.assert_allclose(model.bonus(x), 0.0)


def test_ucb_bonus_weakly_decreases_with_duplicated_data():
    reward = fig1_top_reward()
    data = make_data(80, reward, noise=0.1, seed=7)
    doubled = [np.concatenate([a, a]) for a in data]
    m1 = fit_surrogate(*data, SurrogateConfig(mode="ucb"))
    m2 = fit_surrogate(*doubled, SurrogateConfig(mode="ucb"))
    x = np.random.default_rng(8).normal(scale=3.0, size=(50, 2))
    assert np.all(m2.bonus(x) <= m1.bonus(x) + 1e-12)


@pytest.mark.parametrize("mode", ["ucb", "bootstrap"])
def test_optimistic_gradient_matches_finite_differences(mode):
    reward = fig1_top_reward()
    data = make_data(120, reward, noise=0.1, seed=9)
    model = fit_surrogate(*data, SurrogateConfig(mode=mode, members=8, seed=1))
    tilt = OptimisticSurrogate(model)
    x = np.random.default_rng(10).normal(size=(6, 2))
    g = tilt.gradient(x)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (tilt.value(x + e) - tilt.value(x - e)) / (2 * h)
        rel = np.abs(g[:, j] - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-4


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


def _online_cfg(mode="ucb", rounds=4, budget=128, seed=0):
    return OnlineConfig(
        rounds=rounds,
        budget=budget,
        surrogate=SurrogateConfig(mode=mode),
        smc=SmcConfig(particles=16),
        seed=seed,
    )


def test_budget_bookkeeping(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    for mode in ("ucb", "bootstrap"):
        hist = run_online_loop(fig1_top_reward(), provider, schedule, _online_cfg(mode=mode))
        assert len(hist.rows) == 4
        assert hist.rows[-1].queries_used == 128
        assert [r.queries_used for r in hist.rows] == [32, 64, 96, 128]


def test_single_round_stays_in_prior_band(schedule, prior_2d):
    """With no feedback yet, round one samples the pre-trained model."""
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    hist = run_online_loop(reward, provider, schedule, _online_cfg(rounds=1, budget=256))
    prior_mean = expected_quadratic_reward(prior_2d, reward)
    draws = prior_2d.sample(4000, 0)
    band = 4 * reward.value(draws).std() / np.sqrt(256)
    assert abs(hist.rows[0].mean_true_reward - prior_mean) < band + 0.1


def test_online_loop_improves(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    hist = run_online_loop(reward, provider, schedule, _online_cfg(rounds=4, budget=256, seed=3))
    rewards = [r.mean_true_reward for r in hist.rows]
    oracle_mean = expected_quadratic_reward(tilt_quadratic(prior_2d, reward, 1.0), reward)
    prior_mean = expected_quadratic_reward(prior_2d, reward)
    assert rewards[-1] > prior_mean + 0.5 * (oracle_mean - prior_mean)
    assert rewards[-1] > rewards[0]


def test_online_deterministic(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    h1 = run_online_loop(fig1_top_reward(), provider, schedule, _online_cfg(seed=5))
    h2 = run_online_loop(fig1_top_reward(), provider, schedule, _online_cfg(seed=5))
    assert h1.to_csv() == h2.to_csv()


def test_online_history_csv(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    hist = run_online_loop(fig1_top_reward(), provider, schedule, _online_cfg())
    lines = hist.to_csv().strip().splitlines()
    assert lines[0] == "round,queries_used,mean_true_reward,surrogate_rmse"
    assert len(lines) == 5


def test_online_config_validation():
    with pytest.raises(InputError):
        OnlineConfig(rounds=3, budget=100)  # does not divide evenly
    with pytest.raises(InputError):
        OnlineConfig(rounds=0, budget=100)
    with pytest.raises(InputError):
        SurrogateConfig(mode="thompson")


def test_bootstrap_model_needs_ensemble_members():
    feats = PolyFeatures(2)
    with pytest.raises(InputError):
        SurrogateModel(feats, np.zeros(feats.size), np.eye(feats.size), beta=1.0, mode="bootstrap")


def test_a_non_finite_guidance_gradient_fails_the_round(schedule, prior_2d, monkeypatch):
    """The loop turns the sampler's GuidanceExplosionError into an
    OnlineRoundError that names the round and keeps the sampler's rows."""
    provider = GmmScoreProvider(prior_2d, schedule)
    gradient = OptimisticSurrogate.gradient

    def nan_gradient(self, x):
        g = gradient(self, x)
        g[5] = np.nan
        return g

    monkeypatch.setattr(OptimisticSurrogate, "gradient", nan_gradient)
    with pytest.raises(OnlineRoundError, match=r"round 2 failed .*non-finite guidance gradient at t=100 in rows \[5\]"):
        run_online_loop(fig1_top_reward(), provider, schedule, _online_cfg(rounds=2, budget=64))
