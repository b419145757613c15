"""Reverse-time DDPM machinery over a pluggable score provider.

A score provider knows the marginal score of the diffused data distribution
at every time index; the analytic mixture provider is exact, the trained
network provider is learned.  The mixture provider diffuses its prior to
every time index when it is built, in one batched pass, into a table of the
mixture kernel's constants, one row per t; a sampling step runs the kernel
on its row and builds no mixture.  Everything here is a pure function of
(provider, schedule, positions), batched over ``(n, d)`` arrays.

Guidance needs one vector per point, v^T J with J the Jacobian of the
denoised prediction, never J itself.  So a provider's ``score_jacobian``
returns the score with a *pullback* of the Tweedie map, not a ``(n, d, d)``
array: the mixture closes over its exact Hessian, kept as the ``(d, d, n)``
coordinate planes its kernel makes, and the MLP runs one backward pass
through the network.  A guided sampling step calls the provider once
per point: ``score_jacobian`` at the new points gives the score for their
reverse mean and denoised reward, and the pullback the gradient that
shifts their next step (see :func:`das.smc.transition`).  A test that
wants the whole matrix builds it from d unit pullbacks.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .errors import InputError, check_range
from .gmm import Gmm, _check_components, _constants, _diffused, _points, _sums, forward_marginal
from .schedule import NoiseSchedule


@runtime_checkable
class ScoreProvider(Protocol):
    """Marginal score of the diffused distribution, and the pullback of the
    Tweedie map it defines."""

    dim: int

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        """grad log p_t at each row of ``x``; shape ``(n, d)``."""
        ...

    def score_jacobian(self, x: np.ndarray, t: int):
        """Score at each row of ``x`` and its pullback, from one evaluation:
        ``(score, pullback)``.  The score, shape ``(n, d)``, equals
        :meth:`score` at the same ``(x, t)``.  ``pullback(v, a, b)`` maps
        ``v``, shape ``(n, d)``, to v^T (I + a H) / b per row, shape
        ``(n, d)``, with H = d score / d x (the Hessian of log p_t): the
        transposed Jacobian of x -> (x + a score(x)) / b, which is Tweedie's
        denoiser at a = 1 - abar_t, b = sqrt(abar_t).  A row's result does
        not depend on the other rows of the call.  A ``v`` of any other
        shape raises :class:`InputError`; none is broadcast.
        """
        ...


class GmmScoreProvider:
    """Exact scores of a mixture prior under the forward process.

    Forward marginals are themselves mixtures.  The constructor diffuses the
    prior to every t = 0..T at once, as one ``(T + 1, K, d, d)`` stack of
    covariances, validates the stack once, and turns it into a table of the
    mixture kernel's constants (:func:`das.gmm._constants`): row t holds
    those of ``forward_marginal(prior, schedule, t)`` bit for bit, row 0 the
    prior's own.  ``score`` and ``score_jacobian`` run the kernel on row t,
    so sampling builds no per-t mixture; :meth:`marginal` builds one as a
    :class:`Gmm`, off the sampling path.

    ``score_jacobian``'s pullback works on the marginal's Hessian planes
    (:meth:`das.gmm.Gmm.hessian_planes`): it forms (I + a H) / b plane by
    plane, with the identity as cached ``(d, d, 1)`` planes, multiplies by
    v and adds the d products of each output from zero in coordinate
    order: the float operations of ``einsum("nde,nd->ne", (eye + a * hess)
    / b, v)`` on the ``(n, d, d)`` Hessian, and so its bits, without that
    array, the per-call ``np.eye`` or the einsum.
    """

    def __init__(self, prior: Gmm, schedule: NoiseSchedule):
        self.prior = prior
        self.schedule = schedule
        self.dim = prior.dim
        means, covariances = _diffused(prior, schedule.alpha_bars)
        _check_components(means, covariances)
        self._table = list(zip(*_constants(prior.weights, means, covariances)))
        # the identity as (d, d, 1) planes, added rather than put on the
        # diagonal: off it, 0.0 + a H_ij turns a -0.0 into +0.0, as
        # eye + a * hess does
        self._eye = np.eye(prior.dim)[:, :, None]

    def marginal(self, t: int) -> Gmm:
        """The forward marginal at ``t`` as a mixture, built anew."""
        return forward_marginal(self.prior, self.schedule, t)

    def _constants_at(self, t: int):
        if not 0 <= t <= self.schedule.steps:
            raise InputError(f"t={t} outside [0, {self.schedule.steps}]")
        return self._table[t]

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        return _sums(self._constants_at(t), _points(x, self.dim), hessian=False)[1].T.copy()

    def score_jacobian(self, x: np.ndarray, t: int):
        _, score, hess = _sums(self._constants_at(t), _points(x, self.dim), hessian=True)
        d, n = score.shape

        def pullback(v: np.ndarray, a: float, b: float) -> np.ndarray:
            # (I + a H) / b on the Hessian's (d, d, n) planes, then
            # out_e = sum_d v_d M_de from zero, the terms in d order
            v = np.asarray(v, dtype=float)
            if v.shape != (n, d):
                raise InputError(f"pullback vectors have shape {v.shape}, expected ({n}, {d})")
            m = np.multiply(hess, a)
            m += self._eye
            m /= b
            m *= v.T[:, None]
            out = np.empty((n, d))
            np.add.reduce(m, axis=0, out=out.T, initial=0.0)
            return out

        return score.T.copy(), pullback


def reverse_mean(schedule: NoiseSchedule, x: np.ndarray, score: np.ndarray, t: int) -> np.ndarray:
    """Reverse-kernel mean from the score at ``(x, t)``:
    mu = (x_t + beta_t * score) / sqrt(1 - beta_t).

    With an exact score this is the exact conditional mean E[x_{t-1} | x_t]
    of the forward process, for any prior."""
    beta = schedule.beta(t)
    return (x + beta * score) / np.sqrt(1.0 - beta)


def denoise(schedule: NoiseSchedule, x: np.ndarray, score: np.ndarray, t: int) -> np.ndarray:
    """Tweedie's denoised prediction x0_hat = E[x_0 | x_t] from the score at
    ``(x, t)``: x0_hat = (x_t + (1 - abar_t) * score) / sqrt(abar_t)."""
    abar = schedule.alpha_bar(t)
    return (x + (1.0 - abar) * score) / np.sqrt(abar)


def ancestral_sample(provider: ScoreProvider, schedule: NoiseSchedule, n: int, seed) -> np.ndarray:
    """Plain reverse-diffusion sampling: x_T ~ N(0, I), then the Gaussian
    reverse kernel down to t=0 (final step noiseless).  Deterministic given
    ``seed``; chains are vectorized and independent."""
    check_range("n", n, 1, count=True)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, provider.dim))
    for t in range(schedule.steps, 0, -1):
        mu = reverse_mean(schedule, x, provider.score(x, t), t)
        noise = rng.standard_normal(x.shape)
        x = mu + schedule.sigma(t) * noise
    return x
