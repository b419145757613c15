from pathlib import Path

import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    MlpDenoiser,
    NetScoreProvider,
    TrainConfig,
    denoised_reward,
    denoised_reward_gradient,
    train_denoiser,
)
from das import scorenet
from das.errors import InputError, TrainingError
from das.rewards import fig1_top_reward, swiss_roll_reward
from das.scorenet import BLOCK, GROUP, Backprop
from das.swissroll import make_swiss_roll
from helpers import ReferenceNetProvider, backprop_gradcheck, float32_net_bounds

TRAIN_GOLDEN = Path(__file__).parent / "data" / "train_golden.npz"
INFER_GOLDEN = Path(__file__).parent / "data" / "infer_golden.npz"
PULLBACK_GOLDEN = Path(__file__).parent / "data" / "pullback_golden.npz"
PROVIDER_GOLDEN = Path(__file__).parent / "data" / "provider32_golden.npz"


def _jacobian(pullback, n, d):
    """The ``(n, d, d)`` input Jacobian rebuilt from d pullbacks: row i of
    each point's Jacobian is the pullback of the unit vector e_i."""
    return np.stack([pullback(np.tile(unit, (n, 1))) for unit in np.eye(d)], axis=1)


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
    bp = Backprop(net, 2)
    bp.feats[...] = net._features(np.zeros((2, 2)), 10)
    bp.backward(np.ones_like(bp.forward()))
    # with all-zero weights the hidden activations vanish, so every weight
    # gradient upstream of the output bias is zero
    assert np.all(bp.g_w3 == 0) and np.all(bp.g_w2 == 0) and np.all(bp.g_w1 == 0)
    assert np.all(bp.g_b3 == 2)  # two samples, direct bias path


def test_input_jacobian_matches_fd():
    net = MlpDenoiser(d=2, t_max=100, seed=3)
    x = np.random.default_rng(0).normal(size=(4, 2))
    out, pullback = net.predict_and_pullback(x, 42)
    np.testing.assert_array_equal(out, net.predict(x, 42))
    jac = _jacobian(pullback, 4, 2)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (net.predict(x + e, 42) - net.predict(x - e, 42)) / (2 * h)
        assert np.abs(jac[:, :, j] - fd).max() < 1e-7


# The boundaries of BLOCK-row blocks in groups of GROUP, and those of 16-row
# blocks in groups of 8, which fall inside one group of today's blocks.
ROW_COUNTS = sorted({1, 5, 15, 16, 17, 53, 133, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, BLOCK * GROUP + 5})


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_inference_rows_do_not_depend_on_the_call_size(n):
    """Each row of a call, and of its pullback, equals the same row computed
    alone, bit for bit, across block and group boundaries; the pair's output
    is predict's."""
    net = MlpDenoiser(d=3, t_max=100, seed=4)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    t = rng.integers(1, 101, size=n)
    v = rng.normal(size=(n, 3))
    out = net.predict(x, t)
    fused, pullback = net.predict_and_pullback(x, t)
    vjp = pullback(v)
    assert out.shape == (n, 3) and vjp.shape == (n, 3)
    np.testing.assert_array_equal(fused, out)
    for i in range(n):
        np.testing.assert_array_equal(net.predict(x[i : i + 1], t[i]), out[i : i + 1])
        alone, pullback_alone = net.predict_and_pullback(x[i : i + 1], t[i])
        np.testing.assert_array_equal(alone, out[i : i + 1])
        np.testing.assert_array_equal(pullback_alone(v[i : i + 1]), vjp[i : i + 1])


def test_the_size_of_a_pass_does_not_change_a_bit(monkeypatch):
    """GROUP sets only how many blocks one pass of the loop multiplies:
    passes of 1, 3 and GROUP blocks give predict and the pullback the same
    bytes on two whole groups, a whole block and a partial block."""
    net = MlpDenoiser(d=3, t_max=100, seed=4)
    n = 2 * BLOCK * GROUP + BLOCK + 3
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 3))
    t = rng.integers(1, 101, size=n)
    v = rng.normal(size=(n, 3))

    def outputs(group):
        monkeypatch.setattr(scorenet, "GROUP", group)
        out, pullback = net.predict_and_pullback(x, t)
        return [a.tobytes() for a in (net.predict(x, t), out, pullback(v))]

    want = outputs(GROUP)
    assert outputs(1) == want
    assert outputs(3) == want


def test_inference_matches_the_golden_file(schedule, blas_core_note):
    """predict and predict_and_pullback of a trained d=3 net (3 epochs from
    seed 4 on the 300-sample swiss roll).  With 64-row blocks in groups of
    8, 1 and 16 rows pad one block, 133 rows fill two blocks and pad a third
    in one partial group, and 4096 rows are 8 whole groups; t is 1, 50, 100
    and one step per row.  (A partial last group after whole ones is
    covered by the row-independence and pass-size tests.)

    ``infer_golden.npz`` was recorded from the kernel that allocated its
    temporaries in every group and formed the whole input Jacobian.  Its
    outputs must match bit for bit.  Its Jacobians must agree with the
    Jacobian rebuilt from d pullbacks to 1e-14 of each point's largest
    entry: the pullback multiplies by ``w2^T`` in gemms of ``BLOCK`` rows,
    where the Jacobian kernel took ``BLOCK * d``.  ``pullback_golden.npz``
    holds the pullback of one random vector per row, recorded from this
    kernel, bit for bit; it names the OpenBLAS core it was recorded on."""
    net, _ = train_denoiser(make_swiss_roll(300, 0.1, 0), schedule, TrainConfig(epochs=3, seed=4))
    golden = np.load(INFER_GOLDEN)
    pulled = np.load(PULLBACK_GOLDEN)
    note = blas_core_note(str(pulled["openblas_core"]))
    for n in (1, 16, 133, 4096):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        t_row = rng.integers(1, 101, size=n)
        v = np.random.default_rng(n + 1).normal(size=(n, 3))
        for t in ("1", "50", "100", "row"):
            tt = t_row if t == "row" else int(t)
            out, pullback = net.predict_and_pullback(x, tt)
            np.testing.assert_array_equal(net.predict(x, tt), golden[f"out_{n}_{t}"], err_msg=blas_core_note(None))
            np.testing.assert_array_equal(out, golden[f"out_{n}_{t}"], err_msg=blas_core_note(None))
            want = golden[f"jac_{n}_{t}"]
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(_jacobian(pullback, n, 3) - want) <= 1e-14 * scale), (n, t)
            np.testing.assert_array_equal(pullback(v), pulled[f"vjp_{n}_{t}"], err_msg=note)


def provider32_outputs(schedule) -> dict:
    """The MLP provider's score and pullback, computed in float32, on the net
    of the inference golden file: 1, 16, 133 and 4096 rows at t = 1, 50, 100."""
    net, _ = train_denoiser(make_swiss_roll(300, 0.1, 0), schedule, TrainConfig(epochs=3, seed=4))
    provider = NetScoreProvider(net, schedule)
    outputs = {}
    for n in (1, 16, 133, 4096):
        x = np.random.default_rng(n).normal(size=(n, 3))
        v = np.random.default_rng(n + 1).normal(size=(n, 3))
        for t in (1, 50, 100):
            abar = schedule.alpha_bar(t)
            score, pullback = provider.score_jacobian(x, t)
            outputs[f"score_{n}_{t}"] = score
            outputs[f"pullback_{n}_{t}"] = pullback(v, 1.0 - abar, np.sqrt(abar))
    return outputs


def test_float32_provider_matches_the_golden_file(schedule, blas_core_note):
    """The float32 provider's bytes, bit for bit, as recorded in
    ``provider32_golden.npz``, which names the OpenBLAS core it was recorded
    on (sgemm and float32 tanh round by kernel as their float64 twins do)."""
    golden = np.load(PROVIDER_GOLDEN)
    note = blas_core_note(str(golden["openblas_core"]))
    outputs = provider32_outputs(schedule)
    assert sorted(outputs) == sorted(k for k in golden.files if k != "openblas_core")
    for key, got in outputs.items():
        np.testing.assert_array_equal(got, golden[key], err_msg=f"{key}: {note}")


def test_input_jacobian_d3_matches_the_layer_product_and_fd():
    """The Jacobian rebuilt from d pullbacks equals the product of the layer
    Jacobians and finite differences of predict."""
    net = MlpDenoiser(d=3, t_max=100, seed=6)
    x = np.random.default_rng(2).normal(size=(BLOCK + 3, 3))
    jac = _jacobian(net.predict_and_pullback(x, 30)[1], BLOCK + 3, 3)
    bp = Backprop(net, BLOCK + 3)
    bp.feats[...] = net._features(x, 30)
    bp.forward()
    h1, h2 = bp.h1, bp.h2
    direct = np.einsum("hd,nh,gh,ng,eg->nde", net.w3, 1.0 - h2**2, net.w2, 1.0 - h1**2, net.w1[:3])
    assert np.abs(jac - direct).max() < 1e-12
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (net.predict(x + e, 30) - net.predict(x - e, 30)) / (2 * h)
        assert np.abs(jac[:, :, j] - fd).max() < 1e-7


def test_inference_follows_theta_after_an_in_place_update():
    """The kernel copies weights per call, so after theta changes in place,
    as an Adam step changes it, a net's outputs equal those of a fresh net
    holding the same theta, bit for bit."""
    net = MlpDenoiser(d=3, t_max=100, seed=4)
    x = np.random.default_rng(0).normal(size=(BLOCK * GROUP + 5, 3))
    v = np.random.default_rng(2).normal(size=x.shape)

    def outputs(net):
        out, pullback = net.predict_and_pullback(x, 30)
        return out, pullback(v)

    before = outputs(net)
    net.theta -= 1e-3 * np.random.default_rng(1).normal(size=net.theta.size)
    after = outputs(net)
    fresh = MlpDenoiser(d=3, t_max=100)
    fresh.theta[...] = net.theta
    for got, want, old in zip(after, outputs(fresh), before):
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, old)


@pytest.mark.parametrize("x, t, shapes", [
    (np.zeros((5, 2)), 3, r"\(5, 2\), expected \(n, 3\)"),
    (np.zeros((5, 3)), np.array([1, 2, 3]), r"\(3,\), expected \(\) or \(5,\)"),
])
def test_malformed_inference_input_raises_input_error(x, t, shapes, monkeypatch):
    """Points of another dimension and a per-row t of another length raise
    InputError naming both shapes, before the kernel pads or allocates."""
    net = MlpDenoiser(d=3, t_max=100)
    monkeypatch.setattr(scorenet, "pad_rows", lambda *args: pytest.fail("kernel ran"))
    for infer in (net.predict, net.predict_and_pullback):
        with pytest.raises(InputError, match=shapes):
            infer(x, t)


def test_pullback_rejects_vectors_of_another_shape():
    net = MlpDenoiser(d=3, t_max=100)
    _, pullback = net.predict_and_pullback(np.zeros((5, 3)), 3)
    for v in (np.zeros((4, 3)), np.zeros((5, 2)), np.zeros(15)):
        with pytest.raises(InputError, match=r"expected \(5, 3\)"):
            pullback(v)


def test_checkpoint_round_trip(tmp_path):
    net = MlpDenoiser(d=2, t_max=100, seed=7)
    path = tmp_path / "net.json"
    net.save(path)
    back = MlpDenoiser.load(path)
    x = np.random.default_rng(1).normal(size=(5, 2))
    np.testing.assert_allclose(back.predict(x, 33), net.predict(x, 33), atol=1e-15)
    np.testing.assert_array_equal(back.theta, net.theta)
    assert all(np.shares_memory(p, back.theta) for p in (back.w1, back.b1, back.w2, back.b2, back.w3, back.b3))


def test_train_config_validation():
    with pytest.raises(InputError):
        TrainConfig(epochs=0)
    with pytest.raises(InputError):
        TrainConfig(learning_rate=0.0)


def test_training_needs_enough_data(schedule):
    with pytest.raises(InputError):
        train_denoiser(np.zeros((100, 2)), schedule, TrainConfig())


def test_training_rejects_non_finite_data(schedule, prior_2d):
    data = prior_2d.sample(256, 0)
    data[100, 1] = np.inf
    with pytest.raises(InputError, match="finite"):
        train_denoiser(data, schedule, TrainConfig(epochs=1))


def test_non_finite_gradient_raises_before_the_update(schedule, prior_2d, monkeypatch):
    """A finite loss with a NaN gradient raises, naming its epoch and batch,
    and leaves the parameters as initialised."""
    nets = []

    class Recorded(MlpDenoiser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    def nan_backward(self, grad_out):
        self.grad[...] = 0.0
        self.grad[7] = np.nan
        return self.grad

    monkeypatch.setattr(scorenet, "MlpDenoiser", Recorded)
    monkeypatch.setattr(Backprop, "backward", nan_backward)
    with pytest.raises(TrainingError, match="gradient not finite at epoch 1, batch 1"):
        train_denoiser(prior_2d.sample(512, 0), schedule, TrainConfig(epochs=2, seed=3))
    np.testing.assert_array_equal(nets[-1].theta, MlpDenoiser(d=2, t_max=schedule.steps, seed=3).theta)


def test_training_deterministic(schedule, prior_2d):
    data = prior_2d.sample(512, 0)
    cfg = TrainConfig(epochs=3, seed=11)
    n1, l1 = train_denoiser(data, schedule, cfg)
    n2, l2 = train_denoiser(data, schedule, cfg)
    assert l1 == l2
    np.testing.assert_array_equal(n1.theta, n2.theta)


@pytest.mark.parametrize("case", ["d2", "d3"])
def test_training_matches_the_golden_file(schedule, prior_2d, case, blas_core_note):
    """Per-epoch losses and parameters after 3 epochs, bit for bit, as
    recorded from the per-array Adam loop this training kernel replaced.
    d=3 has 300 samples, so each epoch ends with a short batch of 44."""
    data = prior_2d.sample(512, 0) if case == "d2" else make_swiss_roll(300, 0.1, 0)
    net, losses = train_denoiser(data, schedule, TrainConfig(epochs=3, seed=11))
    golden = np.load(TRAIN_GOLDEN)
    note = blas_core_note(None)
    np.testing.assert_array_equal(np.array(losses), golden[f"{case}_losses"], err_msg=note)
    np.testing.assert_array_equal(net.theta, golden[f"{case}_params"], err_msg=note)


def test_divergence_raises_before_the_update(schedule, prior_2d, monkeypatch):
    """A learning rate of 1e300 throws the parameters to ~1e300 in the first
    step, so the second batch's loss overflows.  That batch raises, naming
    its epoch and batch, and leaves the parameters as the first step set them."""
    nets = []

    class Recorded(MlpDenoiser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    monkeypatch.setattr(scorenet, "MlpDenoiser", Recorded)
    data = prior_2d.sample(256, 0)  # one batch per epoch
    one_step, _ = train_denoiser(data, schedule, TrainConfig(epochs=1, learning_rate=1e300, seed=3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="at epoch 2, batch 1"):
            train_denoiser(data, schedule, TrainConfig(epochs=3, learning_rate=1e300, seed=3))
    failed = nets[-1].theta.copy()
    assert np.all(np.isfinite(failed)) and np.abs(failed).max() > 1e299
    np.testing.assert_array_equal(failed, one_step.theta)


def test_time_features_come_from_one_table():
    """Inference reads the (T+1, 3) table for scalar and per-row t; the
    table holds [t/T, sin(pi t/T), cos(pi t/T)]."""
    net = MlpDenoiser(d=2, t_max=100, seed=0)
    table = net.time_table
    assert table.shape == (101, 3)
    t = np.arange(101)
    np.testing.assert_allclose(table, np.stack([t / 100, np.sin(np.pi * t / 100), np.cos(np.pi * t / 100)], 1))
    x = np.random.default_rng(0).normal(size=(4, 2))
    np.testing.assert_array_equal(net._features(x, 37), np.concatenate([x, np.tile(table[37], (4, 1))], 1))
    ts = np.array([0, 1, 50, 100])
    np.testing.assert_array_equal(net._features(x, ts), np.concatenate([x, table[ts]], 1))
    for bad in (-1, 101, np.array([3, 1, 50, 101]), 2.5):
        with pytest.raises(InputError):
            net.predict(x, bad)


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
    Jacobian agree with finite differences of the denoised reward.  Run on
    the provider's formula in float64: a float32 function cannot be resolved
    at h = 1e-6.  The float32 provider is held to this one by
    test_float32_provider_is_within_its_rounding_bound."""
    net, _ = trained_net_2d
    prov = ReferenceNetProvider(net, schedule)
    reward = fig1_top_reward()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2))
    for t in (15, 60):
        _, _, grads = denoised_reward_gradient(reward, prov, schedule, x, t)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi, _ = denoised_reward(reward, prov, schedule, x + e, t)
            lo, _ = denoised_reward(reward, prov, schedule, x - e, t)
            fd = (hi - lo) / (2 * h)
            rel = np.abs(grads[:, j] - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() < 1e-4


EPS64 = float(np.finfo(np.float64).eps)


@pytest.fixture(scope="module")
def trained_net_3d(schedule):
    return train_denoiser(make_swiss_roll(2048, 0.1, 0), schedule, TrainConfig(epochs=20, seed=4))[0]


@pytest.mark.parametrize("kind", ["trained", "fresh"])
@pytest.mark.parametrize("d", [2, 3])
def test_float32_provider_is_within_its_rounding_bound(kind, d, request, schedule):
    """The shipped provider's score, pullback and r_hat gradient stay within
    the float32 rounding bound derived in the scorenet docstring of the
    float64 reference (:class:`helpers.ReferenceNetProvider`) on the same
    net, at t in {1, 2, 50, 100} and 1 to 4096 rows.  After the float32
    kernel the provider's arithmetic is float64, on both sides; a few
    float64 roundings of each result are added for it."""
    if kind == "trained":
        net = request.getfixturevalue("trained_net_2d")[0] if d == 2 else request.getfixturevalue("trained_net_3d")
    else:
        net = MlpDenoiser(d=d, t_max=schedule.steps, seed=8 + d)
    reward = fig1_top_reward() if d == 2 else swiss_roll_reward()
    shipped, ref = NetScoreProvider(net, schedule), ReferenceNetProvider(net, schedule)
    rng = np.random.default_rng(40 + d)
    x_all = 2.0 * rng.normal(size=(4096, d))
    v_all = rng.normal(size=(4096, d))
    for n in (1, 7, BLOCK * GROUP + 1, 4096):
        x, v = x_all[:n], v_all[:n]
        for t in (1, 2, 50, 100):
            abar = schedule.alpha_bar(t)
            a, b = 1.0 - abar, np.sqrt(abar)
            scale = 1.0 / np.sqrt(1.0 - abar)
            score, pullback = shipped.score_jacobian(x, t)
            want, ref_pullback = ref.score_jacobian(x, t)
            _, vjp = net.predict_and_pullback(x, t)
            e_out, e_pull = float32_net_bounds(net, x, t, v)
            bound = scale * e_out + EPS64 * np.abs(want)
            assert np.all(np.abs(score - want) <= bound), (n, t, np.max(np.abs(score - want) / bound))

            c = a * scale  # the pullback is (v + c v^T d net / d x) / b
            pulled = np.abs(vjp(v))
            bound = (c * e_pull + 4 * EPS64 * (np.abs(v) + c * pulled)) / b
            got, want_p = pullback(v, a, b), ref_pullback(v, a, b)
            assert np.all(np.abs(got - want_p) <= bound), (n, t, np.max(np.abs(got - want_p) / bound))

            # r_hat's gradient pulls back grad r(x0_hat) = b_r - 2 A x0_hat: each
            # side pulls back its own x0_hat, which differ by a / b times the score's error
            _, _, grad = denoised_reward_gradient(reward, shipped, schedule, x, t)
            _, _, grad_ref = denoised_reward_gradient(reward, ref, schedule, x, t)
            x0_hat = (x + a * want) / b
            g = reward.gradient(x0_hat)
            e_x0 = (a * scale * e_out + 4 * EPS64 * (np.abs(x) + a * np.abs(want))) / b
            e_g = 2 * e_x0 @ np.abs(reward.a_matrix) + 4 * EPS64 * np.abs(g)
            _, e_pull_g = float32_net_bounds(net, x, t, g)
            jac = _jacobian(vjp, n, d)
            bound = (c * e_pull_g + e_g + c * np.einsum("ni,nij->nj", e_g, np.abs(jac))
                     + 4 * EPS64 * (np.abs(g) + c * np.abs(vjp(g)))) / b
            assert np.all(np.abs(grad - grad_ref) <= bound), (n, t, np.max(np.abs(grad - grad_ref) / bound))


def test_net_provider_rejects_t0(trained_net_2d, schedule):
    net, _ = trained_net_2d
    prov = NetScoreProvider(net, schedule)
    with pytest.raises(InputError):
        prov.score(np.zeros((1, 2)), 0)
