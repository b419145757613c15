"""Checks that only the tests use: the finite-difference check of the MLP's
gradients, the float64 reference of the MLP provider and the float32
rounding bound against it, the whole Tweedie Jacobian, the swiss roll's
distance from its spiral surface, the error of normalizer estimates against
an exact one, and random full-covariance mixtures."""

import numpy as np

from das.diffusion import ScoreProvider, denoise
from das.gmm import Gmm
from das.schedule import NoiseSchedule
from das.scorenet import HIDDEN, N_TIME_FEATURES, Backprop, MlpDenoiser, NetScoreProvider
from das.swissroll import SCALE


def backprop_gradcheck(net: MlpDenoiser, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Checks the parameter gradients that :class:`Backprop` (the training
    kernel) computes for a random linear functional u . out of the output,
    and its input gradient u^T d out / d x from the inference pullback,
    against finite differences of :meth:`MlpDenoiser.predict`, on a small
    fixed random batch.
    """
    rng = np.random.default_rng(1234)
    x = rng.standard_normal((3, net.d))
    t = rng.integers(1, net.t_max + 1, size=3)
    u = rng.standard_normal((3, net.d))

    def scalar() -> float:
        return float(np.sum(u * net.predict(x, t)))

    bp = Backprop(net, 3)
    bp.feats[...] = net._features(x, t)
    bp.forward()
    analytic = bp.backward(u)

    theta = net.theta
    fd = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        hi = scalar()
        theta[i] = orig - step
        lo = scalar()
        theta[i] = orig
        fd[i] = (hi - lo) / (2.0 * step)

    worst = _max_rel_err(analytic, fd)

    _, pullback = net.predict_and_pullback(x, t)
    vjp = pullback(u)
    fd_vjp = np.empty_like(vjp)
    for j in range(net.d):
        e = np.zeros(net.d)
        e[j] = step
        # per row, since row i of u . out depends on row i of x only
        fd_vjp[:, j] = np.sum(u * (net.predict(x + e, t) - net.predict(x - e, t)), axis=1) / (2.0 * step)
    return max(worst, _max_rel_err(vjp.ravel(), fd_vjp.ravel()))


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


class ReferenceNetProvider(NetScoreProvider):
    """:class:`das.scorenet.NetScoreProvider`'s formula over the float64
    kernel (:meth:`MlpDenoiser.predict`, :meth:`MlpDenoiser.predict_and_pullback`):
    the reference that finite differences can resolve and that the shipped
    float32 provider is held to."""

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        scale = self._scale(t)
        out = self.net.predict(x, t)
        out *= scale
        return out

    def score_jacobian(self, x: np.ndarray, t: int):
        scale = self._scale(t)
        out, vjp = self.net.predict_and_pullback(x, t)
        out *= scale

        def pullback(v: np.ndarray, a: float, b: float) -> np.ndarray:
            u = vjp(v)
            u *= a * scale
            u += v
            u /= b
            return u

        return out, pullback


# Unit roundoff of the float32 kernel plus that of the float64 reference, so
# that one bound covers both sides' rounding (see the scorenet docstring).
UNIT_ROUNDOFF = float(np.finfo(np.float32).eps + np.finfo(np.float64).eps) / 2.0


def float32_net_bounds(net: MlpDenoiser, x: np.ndarray, t, v: np.ndarray):
    """Per-entry bounds on |float32 - float64| of the net's output and of its
    pullback v^T d out / d x, to first order in the unit roundoff u, as
    derived in the :mod:`das.scorenet` docstring: gamma_k = k u / (1 - k u)
    for a k-term product whose operands were rounded to float32, tanh within
    2u of its value, and the magnitudes |z|, |W|, |h|, |s| of the float64
    forward pass.  Returns ``(out_bound, pullback_bound)``, each ``(n, d)``."""
    u = UNIT_ROUNDOFF

    def gamma(k):
        return k * u / (1.0 - k * u)

    n, d = x.shape
    bp = Backprop(net, n)
    bp.feats[...] = net._features(x, t)
    bp.forward()
    z, h1, h2 = np.abs(bp.feats), np.abs(bp.h1), np.abs(bp.h2)
    s1, s2 = 1.0 - h1**2, 1.0 - h2**2
    w1, w2, w3 = np.abs(net.w1), np.abs(net.w2), np.abs(net.w3)
    b1, b2, b3 = np.abs(net.b1), np.abs(net.b2), np.abs(net.b3)
    # forward: each layer's own rounding, plus the error it is handed
    e_h1 = gamma(d + N_TIME_FEATURES + 3) * (z @ w1 + b1) + 2 * u * h1
    e_h2 = gamma(HIDDEN + 3) * (h1 @ w2 + b2) + e_h1 @ w2 + 2 * u * h2
    e_out = gamma(HIDDEN + 3) * (h2 @ w3 + b3) + e_h2 @ w3
    # the slopes 1 - h^2 and the backward pass
    e_s1 = 2 * h1 * e_h1 + u * (h1**2 + s1)
    e_s2 = 2 * h2 * e_h2 + u * (h2**2 + s2)
    v = np.abs(v)
    p3 = v @ w3.T
    e_p3 = gamma(d + 2) * p3
    e_q2 = e_p3 * s2 + p3 * e_s2 + u * p3 * s2
    p2 = (p3 * s2) @ w2.T
    e_p2 = gamma(HIDDEN + 2) * p2 + e_q2 @ w2.T
    e_q1 = e_p2 * s1 + p2 * e_s1 + u * p2 * s1
    e_pull = gamma(HIDDEN + 2) * ((p2 * s1) @ w1[:d].T) + e_q1 @ w1[:d].T
    return e_out, e_pull


def tweedie_x0(provider: ScoreProvider, schedule: NoiseSchedule, x: np.ndarray, t: int):
    """Denoised prediction x0_hat (see :func:`das.diffusion.denoise`) and its
    Jacobian wrt x_t, J = (I + (1 - abar_t) * H) / sqrt(abar_t) with H the
    log-density Hessian.  Row i of J is the provider's pullback of the unit
    vector e_i, so J costs d pullbacks; guidance takes one (see
    :func:`das.rewards.denoised_reward_gradient`).  t=0 is the boundary
    convention: x0_hat = x_t, J = I.

    Returns:
        ``(x0_hat, jac)`` with shapes ``(n, d)`` and ``(n, d, d)``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    if t == 0:
        return x.copy(), np.broadcast_to(np.eye(d), (n, d, d)).copy()
    abar = schedule.alpha_bar(t)
    score, pullback = provider.score_jacobian(x, t)
    a, b = 1.0 - abar, np.sqrt(abar)
    jac = np.stack([pullback(np.tile(unit, (n, 1)), a, b) for unit in np.eye(d)], axis=1)
    return denoise(schedule, x, score, t), jac


def roll_residual(pts: np.ndarray) -> np.ndarray:
    """Distance of each point from the noiseless spiral surface of
    :func:`das.swissroll.make_swiss_roll`.

    On the spiral the radius in the (x, z) plane determines the angle, so
    recomputing the point from its radius must reproduce it.
    """
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    theta = np.hypot(x, z) / SCALE
    res_x = np.abs(SCALE * theta * np.cos(theta) - x)
    res_z = np.abs(SCALE * theta * np.sin(theta) - z)
    res_y = np.maximum(np.abs(y) - 3.0, 0.0)
    return np.maximum(np.maximum(res_x, res_z), res_y)


def z_hat_error(z_hat: np.ndarray, z_true: float):
    """Independent normalizer estimates Z_hat against the exact Z.

    Returns ``(bias, relvar, relvar_se)``: the error of the mean of Z_hat in
    standard errors of that mean, the relative variance
    mean((Z_hat / Z - 1)^2), which is the efficiency figure a proposal is
    judged by, and the standard error of that relative variance.
    """
    ratio = np.asarray(z_hat, dtype=float) / z_true
    n = ratio.size
    bias = (ratio.mean() - 1.0) / (ratio.std(ddof=1) / np.sqrt(n))
    sq = (ratio - 1.0) ** 2
    return float(bias), float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(n))


def random_mixture(k: int, d: int, seed: int) -> Gmm:
    """A K-component mixture in d dimensions with random weights, means and
    full covariances, deterministic given ``seed``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, d, d))
    return Gmm(
        weights=rng.dirichlet(np.ones(k)),
        means=2.0 * rng.normal(size=(k, d)),
        covariances=a @ a.transpose(0, 2, 1) / d + 0.3 * np.eye(d),
    )
