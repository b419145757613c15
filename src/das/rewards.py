"""Reward models and the denoised reward surrogate.

A reward model exposes batched ``value`` and ``gradient``.  During sampling
the reward of a noisy point is estimated through the denoised prediction,
r_hat = r(x0_hat(x_t)); its gradient chains through the full Tweedie
Jacobian, as one pullback of the reward gradient (see
:class:`das.diffusion.ScoreProvider`), without forming the Jacobian.

A sampling step evaluates the provider once per point:
:func:`denoised_reward` gives r_hat, the score for the next reverse-kernel
mean and, on a guided level whose step is noisy, the gradient for the next
step's proposal shift, from one ``score_jacobian`` call.  Unguided runs and
the levels whose step needs no shift (t=1, whose step is noiseless, and
t=0) take one ``score`` call and no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, runtime_checkable

import numpy as np

from .diffusion import ScoreProvider, denoise
from .errors import InputError
from .schedule import NoiseSchedule


@runtime_checkable
class RewardModel(Protocol):
    def value(self, x: np.ndarray) -> np.ndarray:
        """Reward per row of ``x``; shape ``(n,)``."""
        ...

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Reward gradient per row; shape ``(n, d)``."""
        ...


@dataclass(frozen=True)
class QuadraticReward:
    """r(x) = -x^T A x + b^T x + c with A symmetric PSD.

    ``value`` and ``gradient`` add the terms of A and b elementwise, from
    zero; on finite points they skip the terms of zero entries, which leave
    the sums unchanged bit for bit (see ``_terms_for``), so a diagonal A
    costs d terms, not d^2.
    """

    a_matrix: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise InputError("A must be (d, d) and b (d,)")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(self.c)):
            raise InputError("A, b and c must be finite")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise InputError("A must be symmetric within 1e-12")
        if np.linalg.eigvalsh(a).min() < -1e-12:
            raise InputError("A must be positive-semidefinite")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", float(self.c))

    @classmethod
    def zero(cls, d: int) -> "QuadraticReward":
        return cls(np.zeros((d, d)), np.zeros(d), 0.0)

    @classmethod
    def from_diag(cls, diag, b=None, c: float = 0.0) -> "QuadraticReward":
        diag = np.asarray(diag, dtype=float)
        return cls(np.diag(diag), np.zeros_like(diag) if b is None else b, c)

    @cached_property
    def _terms(self):
        """Every term of A and b, and the non-zero ones, each as a pair of
        lists: ``(i, j, A_ij)`` in row-major (i, j) order and ``(i, b_i)``."""
        a, b = self.a_matrix.tolist(), self.b.tolist()
        every = ([(i, j, a_ij) for i, row in enumerate(a) for j, a_ij in enumerate(row)], list(enumerate(b)))
        return every, tuple([term for term in terms if term[-1] != 0.0] for terms in every)

    def _terms_for(self, x: np.ndarray):
        """The terms a call on ``x`` adds.  Each sum starts from +0.0 and so
        never holds -0.0, and adding a +-0.0 term to it changes nothing: so
        the terms of zero entries, x_d 0 x_e and x_d 0, drop out bit for bit
        when x is finite.  When an entry is infinite or NaN they can be NaN,
        and every term is added.  (A finite sum means every entry is finite.)
        """
        every, nonzero = self._terms
        return nonzero if math.isfinite(x.sum()) else every

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # x^T A x as the sum of the terms x_d A_de x_e in row-major (d, e)
        # order, and b^T x as the sum of the terms x_d b_d, each from zero:
        # elementwise only (no BLAS product), so a row's value does not depend
        # on how many rows share the call
        quad_terms, lin_terms = self._terms_for(x)
        cols = x.T
        quad = np.zeros(x.shape[0])
        lin = np.zeros(x.shape[0])
        for i, j, a_ij in quad_terms:
            quad += cols[i] * a_ij * cols[j]
        for i, b_i in lin_terms:
            lin += cols[i] * b_i
        return -quad + lin + self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # -2 x^T A as the sum over d of the terms -2 x_d A_de, from zero, as in
        # value; kept as (d, n) columns so that every operation runs along the rows
        quad_terms, _ = self._terms_for(x)
        xm2 = -2.0 * x.T
        grad = np.zeros(xm2.shape)
        for i, j, a_ij in quad_terms:
            grad[j] += xm2[i] * a_ij
        out = np.empty_like(x)
        np.add(grad, self.b[:, None], out=out.T)
        return out


def fig1_top_reward() -> QuadraticReward:
    """2D task: r(x, y) = -x^2/100 - y^2."""
    return QuadraticReward.from_diag([1.0 / 100.0, 1.0])


def fig1_bottom_reward() -> QuadraticReward:
    """2D task: r(x, y) = -x^2 - (y - 1)^2 / 10."""
    # expand: -x^2 - y^2/10 + y/5 - 1/10
    return QuadraticReward(np.diag([1.0, 0.1]), np.array([0.0, 0.2]), -0.1)


def swiss_roll_reward() -> QuadraticReward:
    """3D task: r(x, y, z) = -x^2/100 - y^2/100 - z^2."""
    return QuadraticReward.from_diag([0.01, 0.01, 1.0])


def denoised_reward(
    reward: RewardModel, provider: ScoreProvider, schedule: NoiseSchedule, x: np.ndarray, t: int, guided: bool = False
):
    """Denoised reward r_hat = r(x0_hat(x_t)) per row of ``x``, from one
    provider evaluation: ``(values, score, gradient)``.

    The score at ``(x, t)`` that built x0_hat is returned too, so the
    sampler reuses it for the next reverse-kernel mean.  When ``guided`` and
    the step from t is noisy (t >= 2), the gradient of r_hat wrt the noisy
    point, shape ``(n, d)``, is grad r(x0_hat)^T J with J the exact Tweedie
    Jacobian (see :meth:`das.diffusion.ScoreProvider.score_jacobian`): one
    ``score_jacobian`` call and one pullback.  Otherwise one ``score`` call
    serves, and the gradient is ``None``.  At t=0, r_hat = r, the score is
    zeros (it is never used there) and the gradient is ``None``.
    """
    if t == 0:
        return reward.value(x), np.zeros_like(x), None
    if guided and schedule.sigma(t) > 0.0:
        abar = schedule.alpha_bar(t)
        score, pullback = provider.score_jacobian(x, t)
        x0_hat = denoise(schedule, x, score, t)
        return reward.value(x0_hat), score, pullback(reward.gradient(x0_hat), 1.0 - abar, np.sqrt(abar))
    score = provider.score(x, t)
    return reward.value(denoise(schedule, x, score, t)), score, None
