"""Tempered sequential Monte Carlo over the reverse diffusion process.

The sampler targets the reward-tilted law of the pre-trained sampler.  Each
denoising transition proposes from a reward-shifted Gaussian around the
reverse-kernel mean, weights particles by the exact kernel/proposal/reward
ratio, and resamples adaptively when the effective sample size drops.  The
inverse temperature ramps the reward in from 0 to 1 over the trajectory,
either on a fixed geometric schedule or adaptively by solving for the
largest temperature increment that keeps the ESS at target.

Independent sweeps run together as one batched engine on ``(sweeps, N, d)``
arrays: every step makes one provider call and one reward call on the stacked
rows and one ESS call for all sweeps.  Random streams stay per sweep: each
sweep draws its initial particles, its proposal noise and its resampling
uniforms from its own generator, and resamples, solves for its temperature
increment and checks its weights on its own, so a sweep's output does not
depend on how many sweeps run beside it.

All weight arithmetic is in log space.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .diffusion import ScoreProvider
from .errors import (
    DegenerateEnsembleError,
    GuidanceExplosionError,
    InputError,
)
from .rewards import RewardModel
from .schedule import NoiseSchedule

RESAMPLING_SCHEMES = ("multinomial", "systematic", "ssp")
TEMPER_MODES = ("geometric", "adaptive", "off")


# ----------------------------------------------------------------------
# tempering schedules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TemperSchedule:
    """Inverse temperatures indexed by diffusion time t = 0..T.

    lambdas[T] is the value at the start of sampling and lambdas[0] at the
    end; the sequence must be non-decreasing as t runs T -> 0 and stay in
    [0, 1].
    """

    lambdas: np.ndarray
    gamma: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise InputError("lambdas must be a 1D sequence of length T+1")
        if np.any(lam < 0) or np.any(lam > 1):
            raise InputError("temper values must lie in [0, 1]")
        if np.any(lam[1:] > lam[:-1]):
            raise InputError("temper values must be non-decreasing as t descends")
        object.__setattr__(self, "lambdas", lam)

    @property
    def steps(self) -> int:
        return self.lambdas.size - 1

    def lam(self, t: int) -> float:
        return float(self.lambdas[t])

    @classmethod
    def geometric(cls, gamma: float, steps: int) -> "TemperSchedule":
        """lambda after k completed denoising steps is min((1+gamma)^k - 1, 1).

        Requires gamma large enough that the full tilt is reached within the
        step budget, so the final target really is the tilted distribution.
        """
        if gamma <= 0:
            raise InputError("gamma must be positive")
        k = np.arange(steps, -1, -1)  # completed steps at diffusion time t
        lam = np.minimum(np.expm1(k * np.log1p(gamma)), 1.0)
        if lam[0] < 1.0:
            need = np.expm1(np.log(2.0) / steps)
            raise InputError(
                f"gamma={gamma} never reaches full tilt in {steps} steps; "
                f"need gamma >= {need:.6g}"
            )
        return cls(lambdas=lam, gamma=gamma)

    @classmethod
    def constant(cls, value: float, steps: int) -> "TemperSchedule":
        return cls(lambdas=np.full(steps + 1, float(value)))


def make_temper_schedule(gamma: float, steps: int) -> TemperSchedule:
    return TemperSchedule.geometric(gamma, steps)


def steps_to_full_tilt(gamma: float) -> int:
    """Smallest k with (1+gamma)^k - 1 >= 1."""
    k = int(np.ceil(np.log(2.0) / np.log1p(gamma)))
    while np.expm1((k - 1) * np.log1p(gamma)) >= 1.0:
        k -= 1
    while np.expm1(k * np.log1p(gamma)) < 1.0:
        k += 1
    return k


# ----------------------------------------------------------------------
# ensembles, ESS, resampling
# ----------------------------------------------------------------------


@dataclass
class ParticleEnsemble:
    """Particle positions with log-weights at a diffusion time."""

    t: int
    positions: np.ndarray
    log_weights: np.ndarray
    ancestor_indices: np.ndarray

    def __post_init__(self):
        if self.positions.ndim != 2:
            raise InputError("positions must be (N, d)")
        n = self.positions.shape[0]
        if self.log_weights.shape != (n,) or self.ancestor_indices.shape != (n,):
            raise InputError("log_weights and ancestor_indices must have length N")
        if not np.all(np.isfinite(self.positions)):
            raise InputError("positions must be finite")

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def normalized_weights(self) -> np.ndarray:
        return np.exp(self.log_weights - _logsumexp(self.log_weights))

    def ess(self) -> float:
        return ess(self.log_weights)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by the largest entry.

    Rows whose largest entry is not finite are not shifted, as in
    ``scipy.special.logsumexp``.
    """
    shift = np.max(a, axis=-1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - shift[..., None]), axis=-1)) + shift


def ess(log_weights: np.ndarray) -> float | np.ndarray:
    """Effective sample size 1 / sum(W^2) of the normalized weights.

    ``log_weights`` has shape ``(..., N)``; the result is a float for 1-D
    input and one ESS per row otherwise.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim < 1 or lw.shape[-1] < 1:
        raise InputError("need at least one weight")
    if np.any(np.all(np.isneginf(lw), axis=-1)):
        raise DegenerateEnsembleError("all particle weights are zero")
    ln_w = lw - _logsumexp(lw)[..., None]
    out = np.exp(-_logsumexp(2.0 * ln_w))
    return float(out) if lw.ndim == 1 else out


def resample(log_weights: np.ndarray, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ancestor indices; every scheme is unbiased (E[count_n] = N W_n).

    ``systematic`` and ``ssp`` additionally keep each count within one of
    N W_n.  Outputs are sorted by particle index for reproducibility.
    """
    lw = np.asarray(log_weights, dtype=float)
    if np.all(np.isneginf(lw)):
        raise DegenerateEnsembleError("cannot resample: all weights zero")
    w = np.exp(lw - _logsumexp(lw))
    n = w.size
    if scheme == "multinomial":
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), n - 1)
    if scheme == "systematic":
        cdf = np.cumsum(w)
        cdf[-1] = 1.0
        pts = (rng.random() + np.arange(n)) / n
        return np.minimum(np.searchsorted(cdf, pts, side="right"), n - 1)
    if scheme == "ssp":
        return np.repeat(np.arange(n), _ssp_counts(w, rng))
    raise InputError(f"unknown resampling scheme '{scheme}'")


def _ssp_counts(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Srinivasan sampling process: offspring counts in {floor, ceil} of N w.

    Residuals are shuffled pairwise so each move is mean-zero; every step
    settles one index at 0 or 1.
    """
    n = w.size
    target = n * w / w.sum()
    # snap near-integer targets so e.g. uniform weights give exact counts
    nearest = np.rint(target)
    snap = np.abs(target - nearest) < 1e-9
    target[snap] = nearest[snap]
    counts = np.floor(target).astype(np.int64)
    resid = np.clip(target - counts, 0.0, 1.0)

    i = 0
    for j in range(1, n):
        ri, rj = resid[i], resid[j]
        gain_i = min(rj, 1.0 - ri)  # moving mass j -> i
        gain_j = min(ri, 1.0 - rj)  # moving mass i -> j
        total = gain_i + gain_j
        if total <= 0.0:
            i = j
            continue
        if rng.random() * total < gain_j:
            # push residual onto i
            if gain_i >= 1.0 - ri:
                counts[i] += 1
                resid[j] = rj - gain_i
                i = j
            else:
                resid[i] = ri + gain_i
                resid[j] = 0.0
        else:
            # push residual onto j
            if gain_j >= ri:
                resid[i] = 0.0
                resid[j] = rj + gain_j
                i = j
            else:
                counts[j] += 1
                resid[j] = 1.0
                resid[i] = ri - gain_j
    deficit = n - int(counts.sum())
    if deficit not in (0, 1):
        raise RuntimeError(f"ssp bookkeeping drifted (deficit {deficit})")
    counts[i] += deficit
    return counts


# ----------------------------------------------------------------------
# configuration / trace
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SmcConfig:
    particles: int = 16
    alpha: float = 1.0
    temper_mode: str = "geometric"
    gamma: float = 0.008
    resampling: str = "ssp"
    ess_frac: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.particles < 1:
            raise InputError("need at least one particle")
        if self.alpha <= 0:
            raise InputError("alpha must be positive")
        if not 0.0 < self.ess_frac <= 1.0:
            raise InputError("ess_frac must be in (0, 1]")
        if self.temper_mode not in TEMPER_MODES:
            raise InputError(f"temper_mode must be one of {TEMPER_MODES}")
        if self.resampling not in RESAMPLING_SCHEMES:
            raise InputError(f"resampling must be one of {RESAMPLING_SCHEMES}")


@dataclass
class TraceRow:
    step: int
    t: int
    lam: float
    ess: float
    resampled: bool
    mean_r_hat: float
    max_log_weight_spread: float


@dataclass
class SmcTrace:
    rows: list[TraceRow]
    weighted_final: ParticleEnsemble
    budget_exhausted: bool = False

    def ess_series(self) -> np.ndarray:
        return np.array([r.ess for r in self.rows])

    def lambda_series(self) -> np.ndarray:
        return np.array([r.lam for r in self.rows])

    def resample_count(self) -> int:
        return sum(r.resampled for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("step,t,lambda,ess,resampled,mean_r_hat,max_log_weight_spread\n")
        for r in self.rows:
            buf.write(
                f"{r.step},{r.t},{r.lam:.10g},{r.ess:.10g},{int(r.resampled)},"
                f"{r.mean_r_hat:.10g},{r.max_log_weight_spread:.10g}\n"
            )
        return buf.getvalue()


# ----------------------------------------------------------------------
# single-transition operations (public contracts; the batched engine
# in run_das fuses them)
# ----------------------------------------------------------------------


def _log_normal_iso(x: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    d = x.shape[-1]
    sq = np.sum((x - mean) ** 2, axis=-1)
    return -0.5 * d * np.log(2.0 * np.pi * sigma**2) - sq / (2.0 * sigma**2)


def _rhat_value_and_score(reward, provider, schedule, x, t):
    """Denoised reward value at time t, plus the marginal score (reused by
    the caller for the next reverse-kernel mean)."""
    if t == 0:
        return reward.value(x), np.zeros_like(x)
    sc = provider.score(x, t)
    abar = schedule.alpha_bar(t)
    x0 = (x + (1.0 - abar) * sc) / np.sqrt(abar)
    return reward.value(x0), sc


def _rhat_gradient(reward, provider, schedule, x, t):
    """Gradient of the denoised reward wrt x, chained through the Tweedie
    Jacobian, at time t."""
    if t == 0:
        return reward.gradient(x)
    sc = provider.score(x, t)
    hess = provider.score_jacobian(x, t)
    abar = schedule.alpha_bar(t)
    rem = 1.0 - abar
    x0 = (x + rem * sc) / np.sqrt(abar)
    jac = (np.eye(x.shape[-1])[None, :, :] + rem * hess) / np.sqrt(abar)
    return np.einsum("nde,nd->ne", jac, reward.gradient(x0))


def propose(
    x_t: np.ndarray,
    t: int,
    schedule: NoiseSchedule,
    provider: ScoreProvider,
    reward: RewardModel,
    temper: TemperSchedule,
    alpha: float,
    rng: np.random.Generator,
):
    """One guided transition t -> t-1 for a batch of particles.

    The proposal is the Gaussian approximation of the locally optimal kernel:
    mean shifted from the reverse-kernel mean by sigma_t^2 (lambda_{t-1}/alpha)
    times the denoised-reward gradient taken at the destination time index,
    variance sigma_t^2 I.  At t=1 the transition is noiseless.

    Returns:
        ``(x_prev, log_m)``: samples and their exact proposal log-density
        (zeros for the degenerate noiseless step).
    """
    if not 1 <= t <= schedule.steps:
        raise InputError(f"t={t} outside [1, {schedule.steps}]")
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    beta = schedule.beta(t)
    sigma = schedule.sigma(t)
    mu = (x_t + beta * provider.score(x_t, t)) / np.sqrt(1.0 - beta)
    lam = temper.lam(t - 1)
    mean = mu
    if sigma > 0.0 and lam > 0.0:
        grad = _rhat_gradient(reward, provider, schedule, x_t, t - 1)
        if not np.all(np.isfinite(grad)):
            raise GuidanceExplosionError(t, float(np.max(np.abs(grad))))
        mean = mu + (sigma**2) * (lam / alpha) * grad
    if sigma == 0.0:
        return mean.copy(), np.zeros(x_t.shape[0])
    x_prev = mean + sigma * rng.standard_normal(x_t.shape)
    return x_prev, _log_normal_iso(x_prev, mean, sigma)


def log_weight(
    x_t: np.ndarray,
    x_prev: np.ndarray,
    t: int,
    schedule: NoiseSchedule,
    provider: ScoreProvider,
    reward: RewardModel,
    temper: TemperSchedule,
    alpha: float,
) -> np.ndarray:
    """Incremental log-weight of the transition (x_t -> x_prev) at step t:

    log p_theta(x_prev | x_t) - log m(x_prev | x_t)
      + (lambda_{t-1}/alpha) r_hat(x_prev) - (lambda_t/alpha) r_hat(x_t).

    The kernel/proposal ratio is zero when the step is noiseless (both are
    the same point mass).
    """
    if not 1 <= t <= schedule.steps:
        raise InputError(f"t={t} outside [1, {schedule.steps}]")
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    x_prev = np.atleast_2d(np.asarray(x_prev, dtype=float))
    beta = schedule.beta(t)
    sigma = schedule.sigma(t)
    lam_prev = temper.lam(t - 1)
    lam_cur = temper.lam(t)

    if sigma > 0.0:
        mu = (x_t + beta * provider.score(x_t, t)) / np.sqrt(1.0 - beta)
        mean = mu
        if lam_prev > 0.0:
            grad = _rhat_gradient(reward, provider, schedule, x_t, t - 1)
            mean = mu + (sigma**2) * (lam_prev / alpha) * grad
        kernel_term = _log_normal_iso(x_prev, mu, sigma) - _log_normal_iso(x_prev, mean, sigma)
    else:
        kernel_term = np.zeros(x_t.shape[0])

    rh_prev, _ = _rhat_value_and_score(reward, provider, schedule, x_prev, t - 1)
    rh_cur, _ = _rhat_value_and_score(reward, provider, schedule, x_t, t)
    return kernel_term + (lam_prev / alpha) * rh_prev - (lam_cur / alpha) * rh_cur


def initial_log_weight(
    x_init: np.ndarray,
    schedule: NoiseSchedule,
    provider: ScoreProvider,
    reward: RewardModel,
    temper: TemperSchedule,
    alpha: float,
) -> np.ndarray:
    """(lambda_T / alpha) r_hat(x_T); exactly zero under the usual lambda_T = 0."""
    lam = temper.lam(schedule.steps)
    vals, _ = _rhat_value_and_score(reward, provider, schedule, np.atleast_2d(x_init), schedule.steps)
    return (lam / alpha) * vals


def solve_for_delta(
    log_weights: np.ndarray,
    r_hat_values: np.ndarray,
    ess_target: float,
    lambda_t: float,
    alpha: float,
    tol: float = 1e-12,
) -> float:
    """Largest admissible temperature increment keeping ESS at target.

    Bisection root of ESS(w * exp(delta r_hat / alpha)) = ess_target on
    [0, 1 - lambda_t]; clamps to an endpoint when no root exists inside.
    """
    n = np.asarray(log_weights).size
    if not 1.0 < ess_target <= n:
        raise InputError("ess_target must lie in (1, N]")
    hi = 1.0 - lambda_t
    if hi <= 0.0:
        return 0.0
    lw = np.asarray(log_weights, dtype=float)
    rv = np.asarray(r_hat_values, dtype=float)

    def gap(delta: float) -> float:
        return ess(lw + (delta / alpha) * rv) - ess_target

    if gap(hi) >= 0.0:
        return hi
    if gap(0.0) <= 0.0:
        return 0.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return lo


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------


def derive_sweep_seed(seed: int, sweep: int) -> int:
    return int(np.random.SeedSequence([seed, sweep]).generate_state(1)[0])


def run_das(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    guided_proposal: bool = True,
    *,
    sweeps: int | None = None,
):
    """Run the sampler.

    ``temper_mode='geometric'`` ramps the reward geometrically,
    ``'off'`` keeps it fully on (lambda = 1 throughout), and
    ``'adaptive'`` solves for each temperature increment (see
    :func:`run_das_adaptive`).
    ``guided_proposal=False`` proposes from the plain reverse kernel, which
    turns the run into an untwisted SMC baseline.

    By default this is one sweep seeded by ``config.seed``.  ``sweeps=S``
    runs S independent sweeps instead, sweep s seeded by
    ``derive_sweep_seed(config.seed, s)``; this is :func:`pooled_das`.

    Returns:
        ``(ensemble, trace)`` for one sweep: the ensemble holds unweighted
        draws after a terminal resampling pass; the trace retains the
        weighted ensemble.  With ``sweeps=S``, ``(positions, traces)`` as
        :func:`pooled_das` returns them.
    """
    if sweeps is None:
        seeds = [config.seed]
    elif sweeps >= 1:
        seeds = [derive_sweep_seed(config.seed, s) for s in range(sweeps)]
    else:
        raise InputError("need at least one sweep")
    finals, traces = _run_sweeps(config, provider, schedule, reward, guided_proposal, seeds)
    if sweeps is None:
        return finals[0], traces[0]
    return np.concatenate([f.positions for f in finals], axis=0), traces


def run_das_adaptive(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    guided_proposal: bool = True,
):
    """Adaptive-tempering variant: per step the temperature increment is the
    bisection solution holding ESS at ``ess_frac * N``, folded into the
    weights before the standard resample/propose transition (which then uses
    the frozen new temperature on both of its reward terms)."""
    return run_das(replace(config, temper_mode="adaptive"), provider, schedule, reward, guided_proposal)


def pooled_das(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    sweeps: int,
    guided_proposal: bool = True,
):
    """Pool final positions of independent sweeps (particles within one sweep
    are correlated after resampling, so large sample sets come from many
    sweeps).

    The sweeps advance together as one batch, but each keeps its own random
    stream, seeded by ``derive_sweep_seed(config.seed, s)``: the pool equals
    the concatenation of :func:`run_das` at those seeds.

    Returns:
        ``(positions, traces)`` with positions of shape ``(sweeps * N, d)``.
    """
    return run_das(config, provider, schedule, reward, guided_proposal, sweeps=sweeps)


def _check_finite(t: int, r_hat: np.ndarray, log_weights: np.ndarray):
    """Raise if a denoised reward or log-weight of an ``(S, N)`` batch is not
    finite, naming the first such sweep and its particles."""
    bad = ~(np.isfinite(r_hat) & np.isfinite(log_weights))
    if bad.any():
        sweep = int(np.flatnonzero(bad.any(axis=1))[0])
        particles = np.flatnonzero(bad[sweep]).tolist()
        raise DegenerateEnsembleError(
            f"non-finite denoised reward or log-weight at t={t} in sweep {sweep}, particles {particles}"
        )


def _run_sweeps(config, provider, schedule, reward, guided, seeds):
    """Advance one sweep per seed, all together on ``(S, N, d)`` arrays.

    Provider, reward and ESS calls see the stacked ``(S * N, d)`` rows;
    noise, resampling and the adaptive temperature solve stay per sweep, on
    that sweep's own generator, in the order a lone sweep would make them.
    """
    n_sweeps, n, d = len(seeds), config.particles, provider.dim
    alpha = config.alpha
    t_steps = schedule.steps
    ess_threshold = config.ess_frac * n
    adaptive = config.temper_mode == "adaptive"
    if adaptive:
        if not 1.0 < ess_threshold <= n:
            raise InputError("adaptive tempering needs ess_frac * particles > 1")
    elif config.temper_mode == "geometric":
        temper = TemperSchedule.geometric(config.gamma, t_steps)
    else:
        temper = TemperSchedule.constant(1.0, t_steps)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    sweep_index = np.arange(n_sweeps)[:, None]
    identity = np.arange(n)

    x = np.stack([rng.standard_normal((n, d)) for rng in rngs])
    rh_val, score_cache = _rhat_value_and_score(reward, provider, schedule, x.reshape(-1, d), t_steps)
    rh_val, score_cache = rh_val.reshape(n_sweeps, n), score_cache.reshape(x.shape)
    lam_cur = np.zeros(n_sweeps) if adaptive else np.full(n_sweeps, temper.lam(t_steps))
    lw = (lam_cur[:, None] / alpha) * rh_val
    _check_finite(t_steps, rh_val, lw)
    ancestors = np.tile(identity, (n_sweeps, 1))
    rows = [[] for _ in seeds]

    for t in range(t_steps, 0, -1):
        if adaptive:
            delta = np.array([
                solve_for_delta(lw[s], rh_val[s], ess_threshold, lam_cur[s], alpha)
                for s in range(n_sweeps)
            ])
            lam_next = np.minimum(lam_cur + delta, 1.0)
            lw = lw + (delta[:, None] / alpha) * rh_val
            lam_src = lam_next
        else:
            lam_next = np.full(n_sweeps, temper.lam(t - 1))
            lam_src = np.full(n_sweeps, temper.lam(t))

        cur_ess = ess(lw)
        spread = np.max(lw, axis=1) - np.min(lw, axis=1)
        mean_rh = np.mean(rh_val, axis=1)
        resampled = cur_ess < ess_threshold
        ancestors = np.tile(identity, (n_sweeps, 1))
        if resampled.any():
            for s in np.flatnonzero(resampled):
                ancestors[s] = resample(lw[s], config.resampling, rngs[s])
            x = x[sweep_index, ancestors]
            rh_val = rh_val[sweep_index, ancestors]
            score_cache = score_cache[sweep_index, ancestors]
            lw = np.where(resampled[:, None], 0.0, lw)
        for s, sweep_rows in enumerate(rows):
            sweep_rows.append(
                TraceRow(
                    step=t_steps - t + 1,
                    t=t,
                    lam=float(lam_next[s]),
                    ess=float(cur_ess[s]),
                    resampled=bool(resampled[s]),
                    mean_r_hat=float(mean_rh[s]),
                    max_log_weight_spread=float(spread[s]),
                )
            )

        beta = schedule.beta(t)
        sigma = schedule.sigma(t)
        mu = (x + beta * score_cache) / np.sqrt(1.0 - beta)
        mean = mu
        tilted = lam_next > 0.0
        if guided and sigma > 0.0 and tilted.any():
            grad = _rhat_gradient(reward, provider, schedule, x[tilted].reshape(-1, d), t - 1)
            if not np.all(np.isfinite(grad)):
                raise GuidanceExplosionError(t, float(np.max(np.abs(grad))))
            shift = (sigma**2) * (lam_next[tilted, None, None] / alpha) * grad.reshape(-1, n, d)
            mean = mu.copy()
            mean[tilted] = mu[tilted] + shift

        noise = np.stack([rng.standard_normal((n, d)) for rng in rngs])
        x_new = mean + sigma * noise
        if sigma > 0.0:
            kernel_term = _log_normal_iso(x_new, mu, sigma) - _log_normal_iso(x_new, mean, sigma)
        else:
            kernel_term = np.zeros((n_sweeps, n))

        rh_new, score_new = _rhat_value_and_score(reward, provider, schedule, x_new.reshape(-1, d), t - 1)
        rh_new, score_new = rh_new.reshape(n_sweeps, n), score_new.reshape(x.shape)
        lw = lw + kernel_term + (lam_next[:, None] / alpha) * rh_new - (lam_src[:, None] / alpha) * rh_val
        _check_finite(t - 1, rh_new, lw)

        x, rh_val, score_cache, lam_cur = x_new, rh_new, score_new, lam_next

    finals, traces = [], []
    for s, rng in enumerate(rngs):
        weighted = ParticleEnsemble(0, x[s].copy(), lw[s].copy(), ancestors[s].copy())
        final_anc = resample(lw[s], config.resampling, rng)
        finals.append(ParticleEnsemble(0, x[s][final_anc], np.zeros(n), final_anc))
        traces.append(SmcTrace(rows=rows[s], weighted_final=weighted, budget_exhausted=bool(lam_cur[s] < 1.0)))
    return finals, traces
