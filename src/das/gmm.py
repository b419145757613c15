"""Gaussian mixtures with full covariances: densities, scores, diffusion
marginals and the exact quadratic-reward tilt.

The mixture is the workhorse of the toy experiments.  It plays three roles:
the pre-trained data distribution, its forward-diffused marginals (which stay
mixtures under the variance-preserving process), and -- via Gaussian
conjugacy -- the exact tilted target used as ground truth.

All point-wise operations are batched over an ``(n, d)`` array of positions
and everything is computed in log space.

The density kernel works component-major, on ``(., K, n)`` arrays built from
``x.T``: the component scores, Mahalanobis terms and Hessian entries are
elementwise arithmetic with the sums over coordinates written out term by
term, and the sums over components added term by term in k order (one numpy
reduction below 8 components, see :func:`_sum_components`).  It makes no
BLAS call, no einsum and no reduction over rows, so a row's score and
Hessian do not depend on how many rows share the call (pooled sweeps equal
lone ones bit for bit), and the Hessian is symmetric bit for bit.  The score
and Hessian come out as coordinate planes, ``(d, n)`` and ``(d, d, n)``
(:meth:`Gmm.hessian_planes`); the mixture provider's pullback works on
those planes directly (:class:`das.diffusion.GmmScoreProvider`).

The kernel (:func:`_components`, :func:`_sums`) is a function of the
mixture's per-component constants (:func:`_constants`).  A :class:`Gmm`
passes its own; the mixture provider passes row t of its table of the
constants of every forward marginal, built in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .errors import DegenerateTargetError, InputError, check_range

MAX_DIM = 8

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class Gmm:
    """Weighted mixture of full-covariance Gaussians.

    Attributes:
        weights: Mixing weights, shape ``(K,)``, non-negative, sum to 1.
        means: Component means, shape ``(K, d)``.
        covariances: Component covariances, shape ``(K, d, d)``, each
            symmetric positive-definite.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        if mu.ndim != 2 or cov.ndim != 3:
            raise InputError("means must be (K, d) and covariances (K, d, d)")
        k, d = mu.shape
        if w.shape != (k,) or cov.shape != (k, d, d):
            raise InputError(
                f"inconsistent shapes: weights {w.shape}, means {mu.shape}, "
                f"covariances {cov.shape}"
            )
        if d > MAX_DIM:
            raise InputError(f"dimension {d} unsupported (max {MAX_DIM})")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
            raise InputError("weights must be non-negative and sum to 1 within 1e-12")
        _check_components(mu, cov)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @cached_property
    def _columns(self):
        """The kernel's constants of this mixture (see :func:`_constants`)."""
        return _constants(self.weights, self.means, self.covariances)

    @cached_property
    def _chols(self) -> np.ndarray:
        return np.linalg.cholesky(self.covariances)

    # ------------------------------------------------------------------
    # densities and derivatives
    # ------------------------------------------------------------------

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log mixture density at each row of ``x``, shape ``(n,)``."""
        _, shift, total = _shifted_exp(_components(self._columns, _points(x, self.dim), 0)[0])
        return np.log(total) + shift

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the log density, shape ``(n, d)``."""
        return _sums(self._columns, _points(x, self.dim), hessian=False)[1].T.copy()

    def hessian_planes(self, x: np.ndarray):
        """Gradient and Hessian of the log density from one evaluation, as
        coordinate planes: shapes ``(d, n)`` and ``(d, d, n)``, plane
        ``[i, j]`` holding H_ij of every row.  The gradient equals
        :meth:`score` and the Hessian equals its own transpose, bit for bit.

        For a mixture with responsibilities r_k and component scores
        g_k = P_k (mu_k - x):  H = sum_k r_k (g_k g_k^T - P_k) - s s^T.
        """
        return _sums(self._columns, _points(x, self.dim), hessian=True)[1:]

    def score_and_hessian(self, x: np.ndarray):
        """:meth:`hessian_planes` with rows first: shapes ``(n, d)`` and
        ``(n, d, d)``, the Hessian a transposed view of the planes."""
        s, hess = self.hessian_planes(x)
        return s.T.copy(), hess.transpose(2, 0, 1)

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities at each point, shape ``(n, K)``."""
        return _sums(self._columns, _points(x, self.dim), hessian=False)[0].T.copy()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw ``n`` i.i.d. samples, deterministic given ``seed``.

        ``seed`` may be an int or a ``numpy.random.Generator``.
        """
        check_range("n", n, 1, count=True)
        rng = np.random.default_rng(seed)
        idx = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[idx] + np.einsum("nde,ne->nd", self._chols[idx], z)


# ----------------------------------------------------------------------
# the density kernel, a function of the per-component constants
# ----------------------------------------------------------------------


def _check_components(means: np.ndarray, covariances: np.ndarray) -> None:
    """Raise InputError unless the means and covariances are finite and every
    covariance is symmetric and positive-definite.  Any leading axes are
    checked together: one batched ``eigvalsh`` for the whole stack."""
    if not (np.isfinite(means).all() and np.isfinite(covariances).all()):
        raise InputError("means and covariances must be finite")
    if np.max(np.abs(covariances - np.swapaxes(covariances, -1, -2))) > _SYM_TOL:
        raise InputError("covariances must be symmetric within 1e-12")
    if (np.linalg.eigvalsh(covariances).min(axis=-1) <= 0).any():
        raise InputError("covariances must be positive-definite")


def _constants(weights: np.ndarray, means: np.ndarray, covariances: np.ndarray):
    """The kernel's per-component constants, shaped to broadcast against
    ``(., K, n)`` arrays, components on the second-to-last axis: the
    log(w_k N_k) normalizers ``(K, 1)``, -mu / 2 and P mu ``(d, K, 1)``, 2 P
    and P made exactly symmetric (so that the Hessian is) ``(d, d, K, 1)``.

    ``means`` ``(..., K, d)`` and ``covariances`` ``(..., K, d, d)`` may
    carry leading axes, which every constant then carries first: one
    ``inv``, ``slogdet`` and ``einsum`` serve a whole stack of mixtures with
    the same ``weights``, and each slice is contiguous.
    """
    lead = means.ndim - 2
    prec = np.linalg.inv(covariances)
    _, logdets = np.linalg.slogdet(covariances)
    # log of w_k / ((2 pi)^{d/2} |Sigma_k|^{1/2}); -inf for zero weights
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    log_norms = logw - 0.5 * means.shape[-1] * np.log(2.0 * np.pi) - 0.5 * logdets
    col = lambda a: np.ascontiguousarray(np.moveaxis(a, lead, -1))[..., None]  # noqa: E731
    return (
        log_norms[..., None],
        col(-0.5 * means),
        col(np.einsum("...kde,...ke->...kd", prec, means)),
        col(2.0 * prec),
        col(0.5 * (prec + np.swapaxes(prec, -1, -2))),
    )


def _points(x: np.ndarray, d: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != d:
        raise InputError(f"points have dimension {x.shape[-1]}, expected {d}")
    return x


def _components(columns, x: np.ndarray, planes: int):
    """Log(w_k N_k(x)), shape ``(K, n)``, and a buffer of shape
    ``(d + planes, K, n)`` whose first d planes hold the component scores
    g = P mu - P x, plane i being coordinate i for every component; the
    other planes are left unset.  ``columns`` are the mixture's
    :func:`_constants`.

    Elementwise arithmetic on ``(d, K, n)`` arrays, with the sums over
    coordinates written out term by term: (P x)_i = sum_j P_ij x_j and
    the Mahalanobis term (mu - x) . g.  Scaling by 2 or 1/2 is exact, so
    (2 P)(x / 2) is P x bit for bit, and log_norm + ((x - mu) / 2) . g is
    log_norm - (mu - x) . g / 2 bit for bit, with one operation fewer.
    """
    log_norms, half_means, prec_means, prec2, _ = columns
    d, k = half_means.shape[:2]
    buf = np.empty((d + planes, k, x.shape[0]))
    half_x = np.multiply(x.T, 0.5, order="C")[:, None]
    g = np.multiply(prec2[:, 0], half_x[0], out=buf[:d])
    for j in range(1, d):
        g += prec2[:, j] * half_x[j]
    np.subtract(prec_means, g, out=g)
    e = half_means + half_x
    e *= g
    log_joint = np.add(e[0], e[1] if d > 1 else 0.0)
    for i in range(2, d):
        log_joint += e[i]
    log_joint += log_norms
    return log_joint, buf


def _sums(columns, x: np.ndarray, hessian: bool):
    """Responsibilities r_k, shape ``(K, n)``; the score
    s = sum_k r_k g_k, shape ``(d, n)``; and, with ``hessian``, the Hessian
    of the log density sum_k r_k (g_k g_k^T - P_k) - s s^T as ``(d, d, n)``
    planes (``None`` without).

    The responsibilities are normalised before they weight the component
    scores, as a softmax would.  Sums over components are taken by
    :func:`_sum_components`, in the same order at any n.  ``exp`` works on
    a contiguous array for the same reason: its vector and strided loops
    need not round alike.
    """
    d = x.shape[1]
    log_joint, buf = _components(columns, x, d * d if hessian else 0)
    _, k, n = buf.shape
    if hessian:
        # g_i g_j - P_ij is symmetric in (i, j) bit for bit
        g = buf[:d]
        outer = np.multiply(g[:, None], g[None], out=buf[d:].reshape(d, d, k, n))
        outer -= columns[-1]
    resp, _, total = _shifted_exp(log_joint)
    resp /= total
    buf *= resp
    sums = _sum_components(buf)
    s, hess = sums[:d], sums[d:].reshape(d, d, n) if hessian else None
    if hessian:
        hess -= s[:, None] * s
    return resp, s, hess


def _shifted_exp(log_joint: np.ndarray):
    """exp(l_k - max_k l_k) of a ``(K, n)`` array, in place; the shift
    max_k l_k; and the sum of the exponentials over k, shape ``(n,)``, from
    :func:`_sum_components`."""
    shift = log_joint.max(axis=0)
    log_joint -= shift
    p = np.exp(log_joint, out=log_joint)
    return p, shift, _sum_components(p)


def _sum_components(terms: np.ndarray) -> np.ndarray:
    """Sum of a ``(..., K, n)`` array over its K components, the terms of
    each entry added one after another in k order, so that the sum is the
    same at any n.

    Below 8 components that is one numpy reduction started from -0.0:
    numpy adds an outer axis term by term, and a lone row (n = 1) of fewer
    than 8 terms one by one too, and -0.0 + t is t bit for bit, signed
    zeros included.  From 8 components on, numpy would group a lone row's
    terms pairwise, so they are added in Python (the same 8-term line that
    :func:`das.smc._log_normal_iso` draws for coordinates).
    """
    k = terms.shape[-2]
    if k < 8:
        return terms.sum(axis=-2, initial=-0.0)
    total = terms[..., 0, :].copy()
    for j in range(1, k):
        total += terms[..., j, :]
    return total


def isotropic_gmm(means: np.ndarray, var: float) -> Gmm:
    """Equal-weight mixture of isotropic components with shared variance."""
    means = np.atleast_2d(np.asarray(means, dtype=float))
    k, d = means.shape
    covs = np.broadcast_to(var * np.eye(d), (k, d, d)).copy()
    return Gmm(np.full(k, 1.0 / k), means, covs)


def canonical_prior_2d() -> Gmm:
    """Default 2D pre-trained distribution: six equal-weight isotropic modes
    of variance 0.05 on the circle of radius 2.

    Chosen so that modes are visibly separated and mode dropping is
    observable in the sampling experiments.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    means = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return isotropic_gmm(means, 0.05)


# ----------------------------------------------------------------------
# forward diffusion of a mixture
# ----------------------------------------------------------------------


def diffuse(gmm: Gmm, alpha_bar: float) -> Gmm:
    """Marginal of the variance-preserving noising channel at signal level ``alpha_bar``.

    x_t = sqrt(abar) x_0 + sqrt(1 - abar) eps maps each component
    N(mu, Sigma) to N(sqrt(abar) mu, abar Sigma + (1 - abar) I).
    """
    if not 0.0 < alpha_bar <= 1.0:
        raise InputError(f"alpha_bar must be in (0, 1], got {alpha_bar}")
    if alpha_bar == 1.0:
        return gmm
    means, covariances = _diffused(gmm, [alpha_bar])
    return Gmm(weights=gmm.weights.copy(), means=means[0], covariances=covariances[0])


def _diffused(gmm: Gmm, alpha_bars):
    """Component means ``(T, K, d)`` and covariances ``(T, K, d, d)`` of the
    mixture's marginals at each of the T signal levels ``alpha_bars``, as
    :func:`diffuse` maps them."""
    a = np.asarray(alpha_bars, dtype=float)[:, None, None]
    means = np.sqrt(a) * gmm.means
    a = a[..., None]
    return means, a * gmm.covariances + (1.0 - a) * np.eye(gmm.dim)


def forward_marginal(gmm: Gmm, schedule, t: int) -> Gmm:
    """Mixture marginal of the forward process at time index ``t`` (0..T)."""
    if not 0 <= t <= schedule.steps:
        raise InputError(f"t={t} outside [0, {schedule.steps}]")
    if t == 0:
        return gmm
    return diffuse(gmm, schedule.alpha_bar(t))


# ----------------------------------------------------------------------
# exact reward tilt (Gaussian conjugacy; see docs/tilted_mixture.md)
# ----------------------------------------------------------------------


def tilt_quadratic(gmm: Gmm, reward, alpha: float) -> Gmm:
    """Exact mixture form of p(x) * exp(r(x)/alpha), renormalized.

    ``reward`` is a quadratic r(x) = -x^T A x + b^T x + c.  Completing the
    square per component gives new precisions P_k + 2A/alpha, new means
    solving (P_k + 2A/alpha) m = P_k mu_k + b/alpha, and weights rescaled
    by each component's Gaussian integral.

    Raises:
        DegenerateTargetError: if any tilted precision is not positive-definite.
    """
    check_range("alpha", alpha, 0, strict=True)
    a_mat = np.asarray(reward.a_matrix, dtype=float)
    b = np.asarray(reward.b, dtype=float)
    if a_mat.shape != (gmm.dim, gmm.dim) or b.shape != (gmm.dim,):
        raise InputError("reward dimension does not match mixture")

    precs = np.linalg.inv(gmm.covariances)
    tilted_precs = precs + 2.0 * a_mat[None, :, :] / alpha
    bad = np.linalg.eigvalsh(tilted_precs).min(axis=-1) <= 0
    if bad.any():
        raise DegenerateTargetError(
            f"tilted precision of component {int(np.argmax(bad))} not positive-definite; "
            f"alpha={alpha} too small for this reward curvature"
        )

    new_covs = np.linalg.inv(tilted_precs)
    new_covs = 0.5 * (new_covs + np.swapaxes(new_covs, 1, 2))
    eta = np.einsum("kde,ke->kd", precs, gmm.means) + b[None, :] / alpha
    new_means = np.einsum("kde,ke->kd", new_covs, eta)

    # log Gaussian-integral normalizer per component (constant c/alpha cancels)
    _, logdet_old = np.linalg.slogdet(gmm.covariances)
    _, logdet_new = np.linalg.slogdet(new_covs)
    quad_new = np.einsum("kd,kd->k", eta, new_means)
    quad_old = np.einsum("kd,kde,ke->k", gmm.means, precs, gmm.means)
    with np.errstate(divide="ignore"):
        logw = np.log(gmm.weights)
    logw = logw + 0.5 * (logdet_new - logdet_old) + 0.5 * (quad_new - quad_old)
    logw -= logsumexp(logw)
    return Gmm(weights=np.exp(logw), means=new_means, covariances=new_covs)


def ancestral_law(prior: Gmm, schedule, reward, alpha: float):
    """The exact law p_theta of the sampler's own ancestral chain over a
    Gaussian prior N(m, S), and log Z_theta = log E_{p_theta}[exp(r/alpha)]
    for a quadratic reward (see docs/tilted_mixture.md, section 5).

    The exact score at t is affine in x, so the reverse mean is too: from
    x_T ~ N(0, I), each step maps the mean and covariance through
    x_{t-1} = G_t x_t + c_t + sigma_t eps.  With any fixed temper schedule
    that ends at lambda_0 = 1, the SMC estimate Z_hat is unbiased for
    Z_theta, guided or not.

    Returns:
        ``(law, log_z)``: p_theta as a one-component :class:`Gmm`, and log Z_theta.
    """
    if prior.n_components != 1:
        raise InputError("the ancestral law is Gaussian only for a one-component prior")
    eye = np.eye(prior.dim)
    # the marginal N(m_t, S_t) at every t = 0..T, and every P_t = S_t^-1
    means, covariances = _diffused(prior, schedule.alpha_bars)
    precs = np.linalg.inv(covariances[:, 0])
    mean, cov = np.zeros(prior.dim), eye
    for t in range(schedule.steps, 0, -1):
        beta = schedule.beta(t)
        # mu = (x + beta P (m_t - x)) / sqrt(1 - beta) = G x + c
        gain = (eye - beta * precs[t]) / np.sqrt(1.0 - beta)
        mean = gain @ mean + beta * (precs[t] @ means[t, 0]) / np.sqrt(1.0 - beta)
        cov = gain @ cov @ gain.T + schedule.sigma(t) ** 2 * eye
    law = Gmm(np.ones(1), mean[None], 0.5 * (cov + cov.T)[None])
    tilted = tilt_quadratic(law, reward, alpha)
    # p(x) exp(r(x)/alpha) / p_tilt(x) is the normalizer at every x
    at = tilted.means
    log_z = law.log_density(at)[0] + reward.value(at)[0] / alpha - tilted.log_density(at)[0]
    return law, float(log_z)


def expected_quadratic_reward(gmm: Gmm, reward) -> float:
    """E[r(X)] for X ~ gmm and quadratic r, in closed form."""
    a_mat = np.asarray(reward.a_matrix, dtype=float)
    b = np.asarray(reward.b, dtype=float)
    per_comp = (
        -np.einsum("kde,ed->k", gmm.covariances, a_mat)
        - np.einsum("kd,de,ke->k", gmm.means, a_mat, gmm.means)
        + gmm.means @ b
        + reward.c
    )
    return float(gmm.weights @ per_comp)
