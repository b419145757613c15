"""Checks that only the tests use: the finite-difference check of the MLP's
gradients, the whole Tweedie Jacobian, the swiss roll's distance from its
spiral surface, and the error of normalizer estimates against an exact one."""

import numpy as np

from das.diffusion import ScoreProvider, denoise
from das.schedule import NoiseSchedule
from das.scorenet import Backprop, MlpDenoiser
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
