import hashlib

import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    MlpDenoiser,
    NetScoreProvider,
    NoiseSchedule,
    QuadraticReward,
    denoised_reward,
    diffuse,
)
from das.errors import InputError
from das.rewards import fig1_bottom_reward, fig1_top_reward, swiss_roll_reward
from helpers import tweedie_x0


def test_fig1_top_value():
    # r(10, 1) = -100/100 - 1 = -2
    assert fig1_top_reward().value(np.array([[10.0, 1.0]]))[0] == pytest.approx(-2.0, abs=1e-12)


def test_fig1_bottom_value():
    # r(0, 1) = -0 - 0 = 0
    assert fig1_bottom_reward().value(np.array([[0.0, 1.0]]))[0] == pytest.approx(0.0, abs=1e-12)
    # spot-check the expanded coefficients: r(2, -1) = -4 - 4/10
    assert fig1_bottom_reward().value(np.array([[2.0, -1.0]]))[0] == pytest.approx(-4.4, abs=1e-12)


def test_swiss_roll_reward_at_origin():
    assert swiss_roll_reward().value(np.zeros((1, 3)))[0] == 0.0


def test_value_at_zero_is_offset():
    r = QuadraticReward(np.eye(2), np.array([1.0, 2.0]), c=3.5)
    assert r.value(np.zeros((1, 2)))[0] == 3.5


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    r = fig1_bottom_reward()
    x = rng.normal(size=(20, 2))
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (r.value(x + e) - r.value(x - e)) / (2 * h)
        assert np.abs(r.gradient(x)[:, j] - fd).max() < 1e-5


@pytest.mark.parametrize("d", [2, 3, 5])
def test_value_rows_do_not_depend_on_the_call_size(d):
    """With a full A and a random b, each row of a call equals the same row
    scored alone, bit for bit, for value and gradient; the value is
    -x^T A x + b^T x + c and the gradient -2 A x + b."""
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d))
    r = QuadraticReward(m @ m.T, rng.normal(size=d), c=0.25)
    x = rng.normal(size=(133, d))
    vals = r.value(x)
    grads = r.gradient(x)
    for i in range(x.shape[0]):
        np.testing.assert_array_equal(r.value(x[i : i + 1]), vals[i : i + 1])
        np.testing.assert_array_equal(r.gradient(x[i : i + 1]), grads[i : i + 1])
    for n in (2, 3, 7, 64):
        np.testing.assert_array_equal(r.value(x[:n]), vals[:n])
        np.testing.assert_array_equal(r.gradient(x[:n]), grads[:n])
    direct = -np.einsum("nd,de,ne->n", x, r.a_matrix, x) + x @ r.b + r.c
    np.testing.assert_allclose(vals, direct, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(grads, -2.0 * x @ r.a_matrix + r.b, rtol=1e-13, atol=1e-13)


def _gradient_reference(r, x):
    """QuadraticReward.gradient as it was with one add per output column,
    kept to pin the bits of the single transposed add."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xm2 = -2.0 * x.T
    grad = np.zeros(xm2.shape)
    for x_d, a_row in zip(xm2, r.a_matrix):
        grad += x_d * a_row[:, None]
    out = np.empty_like(x)
    for col, g_e, b_e in zip(out.T, grad, r.b.tolist()):
        np.add(g_e, b_e, out=col)
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_gradient_bits_match_the_per_column_reference(d):
    """Same terms, same order, summed from zero, then b added: every output
    is bit for bit the per-column code's, C-contiguous, at every row count,
    with signed zeros (in x, A and b) and non-finite rows."""
    rng = np.random.default_rng(100 + d)
    m = rng.normal(size=(d, d))
    b = rng.normal(size=d)
    b[0] = -0.0
    rewards = [
        QuadraticReward(m @ m.T, b),
        QuadraticReward.from_diag(np.r_[2.0, np.zeros(d - 1)], b=-np.zeros(d)),
        QuadraticReward.zero(d),
    ]
    x = rng.normal(size=(70, d)) * rng.choice([1e-3, 1.0, 1e3], size=(70, 1))
    x[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(8, d))
    x[8, 0], x[9, -1], x[10, 0] = np.inf, -np.inf, np.nan
    x[11] = 1e300
    with np.errstate(all="ignore"):
        for r in rewards:
            for n in (1, 2, 3, 7, 8, 9, 70):
                for rows in (x[:n], x[-n:]):
                    got = r.gradient(rows)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == _gradient_reference(r, rows).tobytes()
            assert r.gradient(x[0]).tobytes() == _gradient_reference(r, x[0]).tobytes()


def _value_reference(r, x):
    """QuadraticReward.value as it was with every term of A and b, zero or
    not: x_d A_de x_e in row-major (d, e) order and x_d b_d, each sum from
    zero."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    quad = np.zeros(x.shape[0])
    lin = np.zeros(x.shape[0])
    for x_d, a_row, b_d in zip(x.T, r.a_matrix.tolist(), r.b.tolist()):
        for x_e, a_de in zip(x.T, a_row):
            quad += x_d * a_de * x_e
        lin += x_d * b_d
    return -quad + lin + r.c


@pytest.mark.parametrize("d", range(1, 9))
def test_value_bits_match_the_term_by_term_reference(d):
    """Every output is bit for bit the full term list's, at every row count,
    with signed zeros (in x, A and b), zero and full A, and rows holding inf,
    NaN or 1e300."""
    rng = np.random.default_rng(200 + d)
    m = rng.normal(size=(d, d))
    b = rng.normal(size=d)
    b[0] = -0.0
    sparse = np.diag(rng.normal(size=d) ** 2)
    sparse[0, -1] = sparse[-1, 0] = 0.0 if d == 1 else 0.1
    rewards = [
        QuadraticReward(m @ m.T, b, c=0.25),
        QuadraticReward(sparse + 2.0 * np.eye(d), np.where(np.arange(d) % 2, b, 0.0), c=-0.0),
        QuadraticReward.from_diag(np.r_[2.0, np.zeros(d - 1)], b=-np.zeros(d)),
        QuadraticReward.zero(d),
    ]
    x = rng.normal(size=(70, d)) * rng.choice([1e-3, 1.0, 1e3], size=(70, 1))
    x[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(8, d))
    x[8, 0], x[9, -1], x[10, 0] = np.inf, -np.inf, np.nan
    x[11] = 1e300
    with np.errstate(all="ignore"):
        for r in rewards:
            for n in (1, 2, 3, 7, 8, 9, 70):
                for rows in (x[:n], x[-n:], x[8:8 + n], x[11:11 + n]):
                    assert r.value(rows).tobytes() == _value_reference(r, rows).tobytes()
            assert r.value(x[0]).tobytes() == _value_reference(r, x[0]).tobytes()


def test_asymmetric_a_rejected():
    with pytest.raises(InputError):
        QuadraticReward(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros(2))


def test_negative_curvature_rejected():
    with pytest.raises(InputError):
        QuadraticReward(-np.eye(2), np.zeros(2))


# ----------------------------------------------------------------------
# denoised reward surrogate
# ----------------------------------------------------------------------


def test_r_hat_at_t0_is_reward(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    x = np.array([[0.5, -0.3]])
    vals, score, grads = denoised_reward(reward, provider, schedule, x, 0, guided=True)
    np.testing.assert_array_equal(score, 0.0)
    assert vals[0] == pytest.approx(reward.value(x)[0], abs=1e-14)
    assert grads is None


def test_r_hat_constant_reward(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = QuadraticReward(np.zeros((2, 2)), np.zeros(2), c=5.0)
    x = np.random.default_rng(1).normal(size=(7, 2))
    vals, score, _ = denoised_reward(reward, provider, schedule, x, 55)
    np.testing.assert_allclose(vals, 5.0, atol=1e-12)
    np.testing.assert_array_equal(score, provider.score(x, 55))
    grad_vals, grad_score, grads = denoised_reward(reward, provider, schedule, x, 55, guided=True)
    np.testing.assert_array_equal(grad_vals, vals)
    np.testing.assert_array_equal(grad_score, score)
    np.testing.assert_allclose(grads, 0.0, atol=1e-12)


@pytest.mark.parametrize("t", [3, 41, 97])
def test_r_hat_gradient_matches_finite_differences(schedule, prior_2d, t):
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    rng = np.random.default_rng(t)
    x = rng.normal(size=(5, 2))
    vals, _, grads = denoised_reward(reward, provider, schedule, x, t, guided=True)
    np.testing.assert_array_equal(vals, denoised_reward(reward, provider, schedule, x, t)[0])
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        hi = denoised_reward(reward, provider, schedule, x + e, t)[0]
        lo = denoised_reward(reward, provider, schedule, x - e, t)[0]
        fd = (hi - lo) / (2 * h)
        rel = np.abs(grads[:, j] - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-5


def test_r_hat_near_zero_noise_approaches_reward(prior_2d):
    sched = NoiseSchedule(betas=np.full(3, 1e-8))
    provider = GmmScoreProvider(prior_2d, sched)
    reward = fig1_top_reward()
    x = np.array([[1.2, 0.4]])
    vals = denoised_reward(reward, provider, sched, x, 1)[0]
    assert abs(vals[0] - reward.value(x)[0]) < 1e-4


def test_r_hat_gradient_is_not_the_identity_shortcut(schedule, prior_2d):
    """The gradient chains through the Tweedie Jacobian, not the identity
    that guidance code often puts in its place."""
    provider = GmmScoreProvider(prior_2d, schedule)
    reward = fig1_top_reward()
    x = np.array([[0.9, -1.4]])
    _, _, full = denoised_reward(reward, provider, schedule, x, 50, guided=True)
    x0, _ = tweedie_x0(provider, schedule, x, 50)
    assert not np.allclose(full, reward.gradient(x0))


@pytest.mark.parametrize("mixture", ["fig1", "aniso_3d"])
def test_mixture_reward_gradient_equals_the_dense_chain(schedule, prior_2d, aniso_3d, mixture):
    """The mixture's pullback keeps the float operations of the chain that
    formed the Tweedie Jacobian: J = (I + (1 - abar) H) / sqrt(abar), then
    einsum("nde,nd->ne", J, grad r(x0_hat)).  Bit for bit on random points,
    rewards and steps."""
    gmm = prior_2d if mixture == "fig1" else aniso_3d
    provider = GmmScoreProvider(gmm, schedule)
    rng = np.random.default_rng(31)
    d = gmm.dim
    for t in (1, 2, 37, 99, 100):
        half = rng.normal(size=(d, d))
        reward = QuadraticReward(half @ half.T, rng.normal(size=d), 0.3)
        x = 2.0 * rng.normal(size=(257, d))
        abar = schedule.alpha_bar(t)
        score, hess = diffuse(gmm, abar).hessian_planes(x)
        x0 = (x + (1.0 - abar) * score.T) / np.sqrt(abar)
        jac = (np.eye(d)[None, :, :] + (1.0 - abar) * hess.transpose(2, 0, 1)) / np.sqrt(abar)
        want = np.einsum("nde,nd->ne", jac, reward.gradient(x0))
        _, _, got = denoised_reward(reward, provider, schedule, x, t, guided=True)
        if t == 1:
            # the step from t = 1 is noiseless, so no shift needs the gradient
            assert got is None
        else:
            assert got.tobytes() == want.tobytes(), t


def _denoised_case(name, prior_2d, aniso_3d, schedule):
    """A provider and reward: the fig1 mixture, the anisotropic 3-D mixture
    with a full-curvature reward, or a fresh float32 MLP in 3-D."""
    if name == "fig1":
        return GmmScoreProvider(prior_2d, schedule), fig1_bottom_reward()
    if name == "aniso_3d":
        a = np.array([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 1.0]])
        return GmmScoreProvider(aniso_3d, schedule), QuadraticReward(a, np.array([0.2, -0.4, 0.1]), 0.3)
    return NetScoreProvider(MlpDenoiser(d=3, t_max=schedule.steps, seed=5), schedule), swiss_roll_reward()


# SHA-256 of the bytes of r_hat, the score and, where it is taken, the
# gradient of r_hat, in that order, for 33 rows at each (provider, t,
# guided), recorded from the functions the sampler called before they were
# merged into one; the float32 MLP's bits hold on the OpenBLAS core named
# in the failure message
DENOISED_DIGESTS = {
    "fig1": {
        "1/False": "0523498923919907d08571638f4c510f763d9f2b56ede21e3c1739ab31bcee7c",
        "1/True": "0523498923919907d08571638f4c510f763d9f2b56ede21e3c1739ab31bcee7c",
        "2/False": "32fe53cd1c81672aa2ce922211888b4c0880b1dff1d996a1f117ce6e03e4eaf7",
        "2/True": "8dae79d1155f52206cb3820fd708de0e0052f99fd91c38fd941fbd21c364973d",
        "50/False": "30ae637375db1c92b9b001ba607382e9adf76226369c8ff320ba2c00c32b9e4a",
        "50/True": "5a8aef3acb353ca0f66066b6e53aad547322395f4c79fc98ac94f99ded8a1fa0",
        "100/False": "dea8f99b3ceabe93e88383dbe1c549742fc30d9a1f1c010c80cdf7bcfc54c80f",
        "100/True": "50c6bf4df14239f4de90a5a7d6bf6a586220fc3f6d17daa942760e6af1c6682a",
    },
    "aniso_3d": {
        "1/False": "24cd6df6fe00532976483c58ff0e649225bd1b03e519a80a9a8c327da8305cab",
        "1/True": "24cd6df6fe00532976483c58ff0e649225bd1b03e519a80a9a8c327da8305cab",
        "2/False": "7329bbd34a2d44ccbfb6eb6d58d8c4c753c984c9e20479cc1a44bcd7f1c6d2b1",
        "2/True": "27893424ba7252367d643653f8e3492be877f518f68a20f8ca78aa4b6914d165",
        "50/False": "b658f911cd1a331b7002e1ebd8dd808e425450a72b592a3a8a8b876150a60d4e",
        "50/True": "797ced88d4c9c643fb6277814df68ac6d5e85407758a9c636d997f7d4537485d",
        "100/False": "d9ed5038d5d6507ad75e4bf760d5879e3f11703386d14cf243f9f057f489020c",
        "100/True": "eb127e438340d7a54deb770b6ccb599ecf1ccaa95a3f5fbb694ebd3e9f259310",
    },
    "net32": {
        "1/False": "358ae7e0139597c3a9da9e16e776ebd332e1f1621ff1b893de101473f530e088",
        "1/True": "358ae7e0139597c3a9da9e16e776ebd332e1f1621ff1b893de101473f530e088",
        "2/False": "0dfccefc5f526a8fcd913876ba5c39ff4c46c4aadd38c448730a4e42d9330f63",
        "2/True": "5b34e5499d06470bf14fc6e7d4954313cd205d9ff95ba74c0179615cfb3db78d",
        "50/False": "d14904876b308b4591748807fc0e04038c354f7df0d0ec3b49c21c70d29b9606",
        "50/True": "ac57860ba85309b22df1bd3828ca26e19d58aa7ec7cd911c001a4e29d5b1c2a0",
        "100/False": "55274fa70b76d784dbf7f696837ba06c2fff404d5313743f96cbe3790cef0ae2",
        "100/True": "2265d118256261e49409a933e497c61e465446b14c914fb4e605e6de6a585985",
    },
}


@pytest.mark.parametrize("name", ["fig1", "aniso_3d", "net32"])
def test_denoised_reward_bits_are_pinned(name, prior_2d, aniso_3d, schedule, blas_core_note):
    provider, reward = _denoised_case(name, prior_2d, aniso_3d, schedule)
    x = 2.0 * np.random.default_rng(29).normal(size=(33, provider.dim))
    got = {}
    for t in (1, 2, 50, 100):
        for guided in (False, True):
            r_hat, score, grad = denoised_reward(reward, provider, schedule, x, t, guided)
            assert (grad is None) == (not guided or t == 1)
            parts = [r_hat, score] + ([] if grad is None else [grad])
            got[f"{t}/{guided}"] = hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()
    assert got == DENOISED_DIGESTS[name], blas_core_note(None)
