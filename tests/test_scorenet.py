import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    MlpDenoiser,
    NetScoreProvider,
    TrainConfig,
    backprop_gradcheck,
    denoised_reward,
    denoised_reward_gradient,
    train_denoiser,
)
from das.errors import InputError
from das.rewards import fig1_top_reward
from das.scorenet import BLOCK, GROUP


def test_gradcheck_fresh_net():
    net = MlpDenoiser(d=2, t_max=100, seed=5)
    assert backprop_gradcheck(net) < 1e-4


def test_gradcheck_repeatable():
    net = MlpDenoiser(d=3, t_max=100, seed=1)
    assert backprop_gradcheck(net) == backprop_gradcheck(net)


def test_zero_weights_zero_gradients():
    net = MlpDenoiser(d=2, t_max=100, seed=0)
    for p in (net.w1, net.w2, net.w3, net.b1, net.b2, net.b3):
        p[...] = 0.0
    x = np.zeros((2, 2))
    out, cache = net._forward(net._features(x, 10))
    grads, _ = net._backward(cache, np.ones_like(out))
    g_w1, g_b1, g_w2, g_b2, g_w3, g_b3 = grads
    # with all-zero weights the hidden activations vanish, so every weight
    # gradient upstream of the output bias is zero
    assert np.all(g_w3 == 0) and np.all(g_w2 == 0) and np.all(g_w1 == 0)
    assert np.all(g_b3 == 2)  # two samples, direct bias path


def test_input_jacobian_matches_fd():
    net = MlpDenoiser(d=2, t_max=100, seed=3)
    x = np.random.default_rng(0).normal(size=(4, 2))
    out, jac = net.predict_and_jacobian(x, 42)
    np.testing.assert_array_equal(out, net.predict(x, 42))
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (net.predict(x + e, 42) - net.predict(x - e, 42)) / (2 * h)
        assert np.abs(jac[:, :, j] - fd).max() < 1e-7


ROW_COUNTS = [1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, BLOCK * GROUP + 5]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_inference_rows_do_not_depend_on_the_call_size(n):
    """Each row of a call equals the same row computed alone, bit for bit,
    across block and group boundaries; the fused call's output is predict's."""
    net = MlpDenoiser(d=3, t_max=100, seed=4)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    t = rng.integers(1, 101, size=n)
    out = net.predict(x, t)
    fused, jac = net.predict_and_jacobian(x, t)
    assert out.shape == (n, 3) and jac.shape == (n, 3, 3)
    np.testing.assert_array_equal(fused, out)
    for i in range(n):
        np.testing.assert_array_equal(net.predict(x[i : i + 1], t[i]), out[i : i + 1])
        alone, jac_alone = net.predict_and_jacobian(x[i : i + 1], t[i])
        np.testing.assert_array_equal(alone, out[i : i + 1])
        np.testing.assert_array_equal(jac_alone, jac[i : i + 1])


def test_input_jacobian_d3_matches_the_layer_product_and_fd():
    net = MlpDenoiser(d=3, t_max=100, seed=6)
    x = np.random.default_rng(2).normal(size=(BLOCK + 3, 3))
    _, jac = net.predict_and_jacobian(x, 30)
    _, (_, h1, h2) = net._forward(net._features(x, 30))
    direct = np.einsum("hd,nh,gh,ng,eg->nde", net.w3, 1.0 - h2**2, net.w2, 1.0 - h1**2, net.w1[:3])
    assert np.abs(jac - direct).max() < 1e-12
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (net.predict(x + e, 30) - net.predict(x - e, 30)) / (2 * h)
        assert np.abs(jac[:, :, j] - fd).max() < 1e-7


def test_checkpoint_round_trip(tmp_path):
    net = MlpDenoiser(d=2, t_max=100, seed=7)
    path = tmp_path / "net.json"
    net.save(path)
    back = MlpDenoiser.load(path)
    x = np.random.default_rng(1).normal(size=(5, 2))
    np.testing.assert_allclose(back.predict(x, 33), net.predict(x, 33), atol=1e-15)


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(epochs=0)
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0)


def test_training_needs_enough_data(schedule):
    with pytest.raises(InputError):
        train_denoiser(np.zeros((100, 2)), schedule, TrainConfig())


def test_training_deterministic(schedule, prior_2d):
    data = prior_2d.sample(512, 0)
    cfg = TrainConfig(epochs=3, seed=11)
    n1, l1 = train_denoiser(data, schedule, cfg)
    n2, l2 = train_denoiser(data, schedule, cfg)
    assert l1 == l2
    np.testing.assert_array_equal(n1.params_vector(), n2.params_vector())


def test_training_loss_drops(trained_net_2d, schedule, prior_2d):
    """Final loss must sit near the analytic optimum of the denoising
    objective.  The optimum is strictly positive (noise is only partially
    predictable), so progress is measured as excess over that floor rather
    than as a fixed fraction of the first-epoch loss."""
    _, losses = trained_net_2d
    assert losses[-1] < losses[0]

    prov = GmmScoreProvider(prior_2d, schedule)
    rng = np.random.default_rng(0)
    total = 0.0
    for t in range(1, schedule.steps + 1):
        x0 = prior_2d.sample(2000, rng)
        eps = rng.standard_normal(x0.shape)
        ab = schedule.alpha_bar(t)
        xt = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
        best = -np.sqrt(1 - ab) * prov.score(xt, t)
        total += np.mean((eps - best) ** 2)
    floor = total / schedule.steps
    assert (losses[999] - floor) < 0.15 * (losses[0] - floor)
    assert losses[999] < 1.1 * floor


def test_trained_score_quality(trained_net_2d, schedule, prior_2d):
    """Score from the epsilon net vs the analytic score on a grid covering
    +-3, at early/mid/late noise levels."""
    net, _ = trained_net_2d
    prov_net = NetScoreProvider(net, schedule)
    prov_ana = GmmScoreProvider(prior_2d, schedule)
    xs = np.linspace(-3, 3, 41)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    rels = []
    for t in (10, 50, 90):
        sn = prov_net.score(grid, t)
        sa = prov_ana.score(grid, t)
        rels.append(np.linalg.norm(sn - sa, axis=1) / np.maximum(np.linalg.norm(sa, axis=1), 1e-12))
    assert float(np.median(np.concatenate(rels))) < 0.15
    for r in rels:
        assert float(np.median(r)) < 0.15


def test_trained_gradcheck(trained_net_2d):
    net, _ = trained_net_2d
    assert backprop_gradcheck(net) < 1e-4


def test_net_provider_r_hat_gradient_fd(trained_net_2d, schedule):
    """ScoreProvider contract: guidance gradients through the net's input
    Jacobian agree with finite differences of the denoised reward."""
    net, _ = trained_net_2d
    prov = NetScoreProvider(net, schedule)
    reward = fig1_top_reward()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2))
    for t in (15, 60):
        grads = denoised_reward_gradient(reward, prov, schedule, x, t)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi, _ = denoised_reward(reward, prov, schedule, x + e, t)
            lo, _ = denoised_reward(reward, prov, schedule, x - e, t)
            fd = (hi - lo) / (2 * h)
            rel = np.abs(grads[:, j] - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() < 1e-4


def test_net_provider_rejects_t0(trained_net_2d, schedule):
    net, _ = trained_net_2d
    prov = NetScoreProvider(net, schedule)
    with pytest.raises(InputError):
        prov.score(np.zeros((1, 2)), 0)
