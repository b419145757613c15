"""Tempered sequential Monte Carlo over the reverse diffusion process.

The sampler targets the reward-tilted law of the pre-trained sampler.  Each
denoising transition draws from a reward-shifted Gaussian around the
reverse-kernel mean, weights particles by the exact kernel/proposal/reward
ratio, and resamples adaptively when the effective sample size drops.  The
inverse temperature ramps the reward in from 0 to 1 over the trajectory,
either on a fixed geometric schedule or adaptively by solving for the
largest temperature increment that keeps the ESS at target.

The weighted step t -> t-1 is written once, as :func:`transition`, and the
run loop calls it at every step: a test of ``transition`` is a test of the
shipped sampler.  :func:`run_das` is the engine's one entry point: one sweep,
or one sweep per seed in one call.  :func:`pooled_das` is ``run_das`` with
``sweeps=S``, and :func:`pooled_runs` draws a fixed number of samples at each
of several base seeds, sizing every pool from that number, in one
``run_das`` call; the suites and the online loop sample through it.

Independent sweeps run together as one batched engine on ``(sweeps, N, d)``
arrays: every step calls ``transition`` once on the stacked rows (one score
call, one score-Jacobian call when guided, one reward call) and ``ess`` once
for all sweeps.  Random streams stay per sweep: each
sweep draws its initial particles, its proposal noise and its resampling
uniforms from its own generator, and resamples, solves for its temperature
increment and checks its weights on its own, so a sweep's output does not
depend on how many sweeps run beside it.  ``run_das(..., seeds=[...])`` runs
one sweep per given seed in one engine call.

The engine records its steps in one :class:`TraceColumns` per call: ``(S, T)``
arrays of lambda, ESS, resample flags, mean r_hat and log-weight spread,
filled in place, plus the log normalizer increment logsumexp(lw) - log N at
every resample and at the terminal pass.  Each sweep's :class:`SmcTrace` is a
view of its row; its per-step rows are built only when read.

All weight arithmetic is in log space.  One row kernel, :func:`_row_log_norm`,
takes the log normalizer of a single row of log-weights with whole-row
reductions and one in-place exp pass.  The ESS of one row (a lone sweep's
``(1, N)`` too), every trial of the temperature bisection, the weights that
:func:`resample` draws from and the log normalizer increments of resampling
steps are built on it.  Its batched twin, :func:`_rows_log_norm`, makes the
same float operations on a whole ``(S, N)`` batch at once; the ESS of several
sweeps and the terminal log normalizer pass use it, so a row's figures are
the same bits either way.  The SSP pairing loop runs on Python floats.  The
engine and the bisection look ``ess``, ``resample`` and ``solve_for_delta``
up in this module at call time, so a wrapper put in their place sees every
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffusion import ScoreProvider, reverse_mean
from .errors import (
    DegenerateEnsembleError,
    GuidanceExplosionError,
    InputError,
)
from .rewards import RewardModel, denoised_reward, denoised_reward_gradient
from .schedule import NoiseSchedule
from .tables import csv_text

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
        return cls(lambdas=lam)

    @classmethod
    def constant(cls, value: float, steps: int) -> "TemperSchedule":
        return cls(lambdas=np.full(steps + 1, float(value)))


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

    def normalized_weights(self) -> np.ndarray:
        """The weights exp(lw - logsumexp(lw)); raises when every weight is
        zero."""
        w = np.empty_like(self.log_weights)
        lse = _row_log_norm(self.log_weights, w)
        np.subtract(self.log_weights, lse, out=w)
        return np.exp(w, out=w)


def _row_log_norm(row: np.ndarray, out: np.ndarray, top: float | None = None) -> float:
    """log(sum(exp(row))) of one 1-D row of log-weights: the row kernel.

    ``top`` is the row's largest entry (``row.max()`` when not given).  The
    row is shifted by it, or by 0 when it is not finite (as
    ``scipy.special.logsumexp`` does), exponentiated into ``out`` (which may
    be ``row`` itself) and summed.  Raises when every weight is zero, the one
    case in which the largest entry is -inf (a row holding a NaN has the
    largest entry NaN).
    """
    if top is None:
        top = float(row.max())
    if top == -math.inf:
        raise DegenerateEnsembleError("all particle weights are zero")
    shift = top if math.isfinite(top) else 0.0
    np.subtract(row, shift, out=out)
    np.exp(out, out=out)
    return float(np.log(out.sum())) + shift


def _rows_log_norm(lw: np.ndarray, top: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of every row of ``lw`` (shape ``(..., N)``) whose
    largest entries ``top`` are all finite: the row kernel's float operations
    on the whole batch, so each row gets the bits :func:`_row_log_norm`
    gives it.  ``out`` may be ``lw`` itself."""
    np.subtract(lw, top[..., None], out=out)
    np.exp(out, out=out)
    lse = np.log(out.sum(axis=-1))
    lse += top
    return lse


def _row_ess(row: np.ndarray) -> float:
    """ESS of one 1-D row of log-weights, on the row kernel."""
    work = np.empty_like(row)
    top = float(row.max())
    lse = _row_log_norm(row, work, top)
    np.subtract(row, lse, out=work)
    work *= 2.0
    # rounding is monotone, so the largest entry of 2 (row - lse) is
    # 2 (top - lse); both are NaN when the row holds a NaN or a +inf
    return float(np.exp(-_row_log_norm(work, work, 2.0 * (top - lse))))


def ess(log_weights: np.ndarray) -> float | np.ndarray:
    """Effective sample size 1 / sum(W^2) of the normalized weights.

    ``log_weights`` has shape ``(..., N)``; the result is a float for 1-D
    input and one ESS per row otherwise.  One row (a lone sweep's ``(1, N)``
    too) goes through the row kernel.  More rows go through one batched pass
    of the same float operations when every row's largest entry is finite,
    and through the row kernel row by row otherwise, so a row's ESS is the
    same bits either way and a row of zero weights raises.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim < 1 or lw.shape[-1] < 1:
        raise InputError("need at least one weight")
    if lw.ndim == 1:
        return _row_ess(lw)
    if lw.size == lw.shape[-1]:
        return np.full(lw.shape[:-1], _row_ess(lw.reshape(-1)))
    top = lw.max(axis=-1)
    if not np.isfinite(top).all():
        rows = lw.reshape(-1, lw.shape[-1])
        return np.array([_row_ess(row) for row in rows]).reshape(lw.shape[:-1])
    work = np.empty_like(lw)
    lse = _rows_log_norm(lw, top, work)
    np.subtract(lw, lse[..., None], out=work)
    work *= 2.0
    # each row's largest entry of 2 (lw - lse), as in _row_ess
    return np.exp(-_rows_log_norm(work, 2.0 * (top - lse), work))


def resample(log_weights: np.ndarray, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ancestor indices; every scheme is unbiased (E[count_n] = N W_n).

    ``systematic`` and ``ssp`` additionally keep each count within one of
    N W_n and return the ancestors sorted by particle index; ``multinomial``
    returns them in draw order.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size < 1:
        raise InputError("need at least one weight")
    w = np.empty_like(lw)
    lse = _row_log_norm(lw, w)
    if not math.isfinite(lse):
        # NaN when a log-weight is NaN, +inf when one is +inf
        raise DegenerateEnsembleError("cannot resample: a log-weight is NaN or +inf")
    np.subtract(lw, lse, out=w)
    np.exp(w, out=w)
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
    settles one index at 0 or 1.  The pairing loop runs on Python floats
    and ints: ``ri`` is the residual of the open index ``i``, and a settled
    residual is never read again.
    """
    n = w.size
    target = n * w / w.sum()
    # snap near-integer targets so e.g. uniform weights give exact counts
    nearest = np.rint(target)
    snap = np.abs(target - nearest) < 1e-9
    target[snap] = nearest[snap]
    floors = np.floor(target).astype(np.int64)
    resid = np.clip(target - floors, 0.0, 1.0).tolist()
    counts = floors.tolist()
    random = rng.random

    i, ri = 0, resid[0]
    for j in range(1, n):
        rj = resid[j]
        room_i, room_j = 1.0 - ri, 1.0 - rj
        gain_i = room_i if room_i < rj else rj  # min(rj, 1 - ri): moving mass j -> i
        gain_j = room_j if room_j < ri else ri  # min(ri, 1 - rj): moving mass i -> j
        total = gain_i + gain_j
        if total <= 0.0:
            i, ri = j, rj
        elif random() * total < gain_j:
            # push residual onto i
            if gain_i >= room_i:
                counts[i] += 1
                i, ri = j, rj - gain_i
            else:
                ri += gain_i
        elif gain_j >= ri:
            # push residual onto j, which stays open
            i, ri = j, rj + gain_j
        else:
            # push residual onto j, which fills up
            counts[j] += 1
            ri -= gain_j
    deficit = n - sum(counts)
    if deficit not in (0, 1):
        raise RuntimeError(f"ssp bookkeeping drifted (deficit {deficit})")
    counts[i] += deficit
    return np.array(counts, dtype=np.int64)


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
        if self.temper_mode == "adaptive" and self.ess_frac * self.particles <= 1.0:
            raise InputError("adaptive tempering needs ess_frac * particles > 1")


@dataclass(frozen=True)
class TraceRow:
    step: int
    t: int
    lam: float
    ess: float
    resampled: bool
    mean_r_hat: float
    max_log_weight_spread: float


class TraceColumns:
    """Per-step records of one engine call: ``(S, T)`` arrays, one row per
    sweep and one column per step (column i is step i+1, at t = T - i),
    filled in place as the sweeps advance.

    ``log_z`` has one more column: entry i < T is the log normalizer
    increment logsumexp(lw) - log N taken when step i+1 resamples (0 when it
    does not), and entry T the one of the terminal resampling pass.  Their
    sum over a sweep is the SMC estimate log Z_hat (Del Moral, Doucet and
    Jasra 2006).
    """

    def __init__(self, n_sweeps: int, steps: int):
        self.steps = steps
        self.lam = np.zeros((n_sweeps, steps))
        self.ess = np.zeros((n_sweeps, steps))
        self.resampled = np.zeros((n_sweeps, steps), dtype=bool)
        self.mean_r_hat = np.zeros((n_sweeps, steps))
        self.spread = np.zeros((n_sweeps, steps))
        self.log_z = np.zeros((n_sweeps, steps + 1))


@dataclass
class SmcTrace:
    """One sweep's view of the engine's :class:`TraceColumns`."""

    columns: TraceColumns
    sweep: int
    weighted_final: ParticleEnsemble
    budget_exhausted: bool = False

    @cached_property
    def rows(self) -> list[TraceRow]:
        c, s = self.columns, self.sweep
        return [
            TraceRow(i + 1, c.steps - i, float(c.lam[s, i]), float(c.ess[s, i]), bool(c.resampled[s, i]),
                     float(c.mean_r_hat[s, i]), float(c.spread[s, i]))
            for i in range(c.steps)
        ]

    def ess_series(self) -> np.ndarray:
        return self.columns.ess[self.sweep].copy()

    def lambda_series(self) -> np.ndarray:
        return self.columns.lam[self.sweep].copy()

    def resample_count(self) -> int:
        return int(self.columns.resampled[self.sweep].sum())

    def log_z_increments(self) -> np.ndarray:
        """Log normalizer increments, one per step and then the terminal
        pass, shape ``(T + 1,)``; 0 where nothing was resampled."""
        return self.columns.log_z[self.sweep].copy()

    def log_z(self) -> float:
        """The sweep's estimate log Z_hat, the sum of its increments."""
        return float(self.columns.log_z[self.sweep].sum())

    def to_csv(self) -> str:
        return csv_text(
            ["step", "t", "lambda", "ess", "resampled", "mean_r_hat", "max_log_weight_spread"],
            ([r.step, r.t, f"{r.lam:.10g}", f"{r.ess:.10g}", int(r.resampled), f"{r.mean_r_hat:.10g}",
              f"{r.max_log_weight_spread:.10g}"] for r in self.rows),
        )


# ----------------------------------------------------------------------
# the weighted transition
# ----------------------------------------------------------------------


def _log_normal_iso(x: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    """log N(x; mean, sigma^2 I) of each row.

    From 2 to 7 coordinates the squares are summed column by column, left to
    right: the order numpy's own reduction takes for fewer than 8 terms (it
    sums 8 or more pairwise), so the bits are those of ``.sum(axis=-1)`` at
    a fraction of its per-call cost.
    """
    d = x.shape[-1]
    diff = x - mean
    diff *= diff
    if 2 <= d < 8:
        sq = diff[..., 0] + diff[..., 1]
        for k in range(2, d):
            sq += diff[..., k]
    else:
        sq = diff.sum(axis=-1)
    return -0.5 * d * np.log(2.0 * np.pi * sigma**2) - sq / (2.0 * sigma**2)


def transition(
    x: np.ndarray,
    score: np.ndarray,
    r_hat: np.ndarray,
    log_weights: np.ndarray,
    lam_src: np.ndarray,
    lam_dst: np.ndarray,
    noise: np.ndarray,
    t: int,
    *,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    alpha: float,
    guided: bool = True,
):
    """One weighted step t -> t-1 for ``(n, d)`` rows of particles.

    ``score`` and ``r_hat`` belong to ``x`` at time t (see
    :func:`das.rewards.denoised_reward`); ``lam_src``, ``lam_dst`` and
    ``noise`` are per row.  The proposal is the Gaussian approximation of the
    locally optimal kernel: the reverse-kernel mean
    mu = (x + beta_t score) / sqrt(1 - beta_t), shifted on rows with
    lam_dst > 0 (when ``guided``) by sigma_t^2 (lam_dst / alpha) times the
    gradient of r_hat at time t-1, plus sigma_t * noise; the step t=1 is
    noiseless.  The log-weights gain the increment

      log p_theta(x_prev | x) - log m(x_prev | x)
        + (lam_dst / alpha) r_hat_prev - (lam_src / alpha) r_hat,

    with r_hat_prev the denoised reward of x_prev at time t-1.  The
    kernel/proposal ratio is zero when nothing is shifted or the step is
    noiseless.

    Returns:
        ``(x_prev, score_prev, r_hat_prev, log_weights)`` at time t-1.
    """
    sigma = schedule.sigma(t)
    mu = reverse_mean(schedule, x, score, t)
    mean = mu
    tilted = lam_dst > 0.0
    if guided and sigma > 0.0 and tilted.any():
        # a slice, not a row mask, when every row is tilted (the usual case):
        # masking copies the rows, a visible cost on a pool of 640 rows
        rows = slice(None) if tilted.all() else tilted
        grad = denoised_reward_gradient(reward, provider, schedule, x[rows], t - 1)
        if not np.isfinite(grad).all():
            raise GuidanceExplosionError(t, float(np.max(np.abs(grad))))
        mean = mu.copy()
        mean[rows] += (sigma**2) * (lam_dst[rows, None] / alpha) * grad
    x_prev = mean + sigma * noise
    if sigma > 0.0:
        kernel_term = _log_normal_iso(x_prev, mu, sigma) - _log_normal_iso(x_prev, mean, sigma)
    else:
        kernel_term = np.zeros(x.shape[0])
    r_hat_prev, score_prev = denoised_reward(reward, provider, schedule, x_prev, t - 1)
    log_weights = log_weights + kernel_term + (lam_dst / alpha) * r_hat_prev - (lam_src / alpha) * r_hat
    return x_prev, score_prev, r_hat_prev, log_weights


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
    tilted = np.empty_like(lw)

    def gap(delta: float) -> float:
        # lw + (delta / alpha) rv, in one buffer for every trial
        np.multiply(rv, delta / alpha, out=tilted)
        np.add(lw, tilted, out=tilted)
        return ess(tilted) - ess_target

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


def derive_sweep_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from ``seed`` and the integer ``path`` (a sweep
    index, or a suite's stream and rep indices)."""
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def run_das(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    guided_proposal: bool = True,
    *,
    sweeps: int | None = None,
    seeds: list[int] | None = None,
):
    """Run the sampler.

    ``temper_mode='geometric'`` ramps the reward geometrically, ``'off'``
    keeps it fully on (lambda = 1 throughout), and ``'adaptive'`` solves per
    step for the largest temperature increment that holds the ESS at
    ``ess_frac * N``, folds it into the weights before resampling, and then
    makes the transition at that frozen temperature (both reward terms use
    it).  ``guided_proposal=False`` draws from the plain reverse kernel,
    which turns the run into an untwisted SMC baseline; with
    ``temper_mode='off'`` that is untempered SMC with the generation process
    as the proposal.

    By default this is one sweep seeded by ``config.seed``.  ``seeds=[...]``
    runs one independent sweep per seed instead, all in one engine call;
    ``sweeps=S`` is shorthand for the seeds ``derive_sweep_seed(config.seed,
    s)``, s < S, and is :func:`pooled_das`.  Sweep s of a multi-sweep run
    equals a lone run seeded by its seed, bit for bit.

    Returns:
        ``(ensemble, trace)`` for one sweep: the ensemble holds unweighted
        draws after a terminal resampling pass; the trace retains the
        weighted ensemble.  With ``sweeps`` or ``seeds``, ``(positions,
        traces)``: the draws of every sweep concatenated, shape
        ``(S * N, d)``, and one trace per sweep.
    """
    if sweeps is not None and seeds is not None:
        raise InputError("give sweeps or seeds, not both")
    if sweeps is not None:
        if sweeps < 1:
            raise InputError("need at least one sweep")
        seeds = [derive_sweep_seed(config.seed, s) for s in range(sweeps)]
    elif seeds is not None:
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise InputError("need at least one sweep")
    finals, traces = _run_sweeps(
        config, provider, schedule, reward, guided_proposal, [config.seed] if seeds is None else seeds
    )
    if seeds is None:
        return finals[0], traces[0]
    return np.concatenate([f.positions for f in finals], axis=0), traces


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


def pooled_runs(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    bases: list[int],
    samples: int,
    guided_proposal: bool = True,
):
    """``samples`` draws at every base seed, from ceil(samples / particles)
    sweeps each, in one :func:`run_das` call.  Block b is the first
    ``samples`` positions and the traces that :func:`pooled_das` gives with
    ``config.seed = bases[b]``, bit for bit: a sweep's draws depend only on
    its own seed, not on the sweeps that run beside it.

    Returns:
        one ``(positions, traces)`` pair per base seed.
    """
    sweeps = -(-samples // config.particles)
    seeds = [derive_sweep_seed(base, s) for base in bases for s in range(sweeps)]
    pts, traces = run_das(config, provider, schedule, reward, guided_proposal, seeds=seeds)
    rows = sweeps * config.particles
    return [(pts[b * rows:b * rows + samples], traces[b * sweeps:(b + 1) * sweeps]) for b in range(len(bases))]


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

    Each step calls :func:`transition` once on the stacked ``(S * N, d)``
    rows, and :func:`ess` once for all sweeps; noise, resampling and the
    adaptive temperature solve stay per sweep, on that sweep's own
    generator, in the order a lone sweep would make them.  The step records
    go into one :class:`TraceColumns`, which every sweep's trace views.
    """
    n_sweeps, n, d = len(seeds), config.particles, provider.dim
    alpha = config.alpha
    t_steps = schedule.steps
    ess_threshold = config.ess_frac * n
    log_n = np.log(n)
    adaptive = config.temper_mode == "adaptive"
    if config.temper_mode == "geometric":
        temper = TemperSchedule.geometric(config.gamma, t_steps)
    elif not adaptive:
        temper = TemperSchedule.constant(1.0, t_steps)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    sweep_index = np.arange(n_sweeps)[:, None]
    identity = np.arange(n)
    cols = TraceColumns(n_sweeps, t_steps)
    noise = np.empty((n_sweeps, n, d))
    scratch = np.empty(n)

    x = np.stack([rng.standard_normal((n, d)) for rng in rngs])
    rh_val, score_cache = denoised_reward(reward, provider, schedule, x.reshape(-1, d), t_steps)
    rh_val, score_cache = rh_val.reshape(n_sweeps, n), score_cache.reshape(x.shape)
    lam_cur = np.zeros(n_sweeps) if adaptive else np.full(n_sweeps, temper.lam(t_steps))
    lw = (lam_cur[:, None] / alpha) * rh_val
    _check_finite(t_steps, rh_val, lw)
    ancestors = None  # the last step's; None while it resampled no sweep

    for i, t in enumerate(range(t_steps, 0, -1)):
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

        cur_ess = cols.ess[:, i] = ess(lw)
        cols.lam[:, i] = lam_next
        cols.spread[:, i] = lw.max(axis=1) - lw.min(axis=1)
        cols.mean_r_hat[:, i] = rh_val.sum(axis=1) / n
        resampled = cols.resampled[:, i] = cur_ess < ess_threshold
        ancestors = None
        if resampled.any():
            ancestors = np.tile(identity, (n_sweeps, 1))
            for s in np.flatnonzero(resampled):
                ancestors[s] = resample(lw[s], config.resampling, rngs[s])
                cols.log_z[s, i] = _row_log_norm(lw[s], scratch) - log_n
            x = x[sweep_index, ancestors]
            rh_val = rh_val[sweep_index, ancestors]
            score_cache = score_cache[sweep_index, ancestors]
            lw = np.where(resampled[:, None], 0.0, lw)

        for s, rng in enumerate(rngs):
            rng.standard_normal(out=noise[s])
        x, score_cache, rh_val, lw = transition(
            x.reshape(-1, d), score_cache.reshape(-1, d), rh_val.ravel(), lw.ravel(),
            np.repeat(lam_src, n), np.repeat(lam_next, n), noise.reshape(-1, d), t,
            provider=provider, schedule=schedule, reward=reward, alpha=alpha, guided=guided,
        )
        x, score_cache = x.reshape(n_sweeps, n, d), score_cache.reshape(n_sweeps, n, d)
        rh_val, lw = rh_val.reshape(n_sweeps, n), lw.reshape(n_sweeps, n)
        _check_finite(t - 1, rh_val, lw)
        lam_cur = lam_next

    # every log-weight is finite here (_check_finite), so is every row's top
    cols.log_z[:, t_steps] = _rows_log_norm(lw, lw.max(axis=1), np.empty_like(lw)) - log_n
    if ancestors is None:
        ancestors = np.tile(identity, (n_sweeps, 1))
    finals, traces = [], []
    for s, rng in enumerate(rngs):
        weighted = ParticleEnsemble(0, x[s].copy(), lw[s].copy(), ancestors[s].copy())
        final_anc = resample(lw[s], config.resampling, rng)
        finals.append(ParticleEnsemble(0, x[s][final_anc], np.zeros(n), final_anc))
        traces.append(SmcTrace(cols, s, weighted, budget_exhausted=bool(lam_cur[s] < 1.0)))
    return finals, traces
