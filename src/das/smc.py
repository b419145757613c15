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
shipped sampler, and of the guidance baseline,
:func:`das.baselines.approx_guidance_sample`, which runs the same step at
lambda = 1 and drops the weights.  :func:`run_das` is the engine's one entry
point: one sweep, or one sweep per seed in one call.  :func:`pooled_runs`
draws a fixed number of samples at each of several base seeds, sizing every
pool from that number, in one ``run_das`` call; the suites and the online
loop sample through it.  :func:`pooled_das` is one such pool of S whole
sweeps.

A guided step shifts the proposal by the gradient of the denoised reward
r_hat at the current points and noise level, (x_t, t): the gradient of the
r_hat that the weights already use, as in twisted diffusion samplers (Wu et
al. 2023).  So one provider evaluation per point and level serves the step:
the ``score_jacobian`` call at (x_{t-1}, t-1) gives the new points their
r_hat, their score for the next reverse mean and, by one pullback (never a
d x d Jacobian), the next step's shift.  A guided run of T steps makes T
provider calls: ``score_jacobian`` at t = T..2 and ``score`` at t = 1, whose
step is noiseless.  Unguided runs make T ``score`` calls.

Independent sweeps run together as one batched engine on stacked
``(sweeps * N, d)`` rows: every step calls ``transition`` once on all rows
(one provider call and one reward call) and ``ess`` once for all sweeps.
Random streams stay per sweep: each sweep draws its initial particles, its
proposal noise and its resampling uniforms from its own generator, and
resamples, solves for its temperature increment and checks its weights on
its own, so a sweep's output does not depend on how many sweeps run beside
it.  ``run_das(..., seeds=[...])`` runs one sweep per given seed in one
engine call.

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
from .errors import DegenerateEnsembleError, GuidanceExplosionError, InputError, check_range
from .rewards import RewardModel, denoised_reward, denoised_reward_gradient
from .schedule import NoiseSchedule
from .tables import csv_text

RESAMPLING_SCHEMES = ("multinomial", "systematic", "ssp")
TEMPER_MODES = ("geometric", "adaptive", "off")


# ----------------------------------------------------------------------
# tempering schedules
# ----------------------------------------------------------------------


def geometric_lambdas(gamma: float, steps: int) -> np.ndarray:
    """The geometric ramp's inverse temperatures, indexed by diffusion time
    t = 0..steps: lambda after k completed denoising steps (at t = steps - k)
    is min((1+gamma)^k - 1, 1), so lambda is 0 at t = steps and 1 at t = 0.

    Requires a finite gamma > 0 large enough that the full tilt is reached
    within the step budget, so the final target really is the tilted
    distribution.
    """
    check_range("gamma", gamma, 0, strict=True)
    k = np.arange(steps, -1, -1)  # completed steps at diffusion time t
    lam = np.minimum(np.expm1(k * np.log1p(gamma)), 1.0)
    if lam[0] < 1.0:
        need = np.expm1(np.log(2.0) / steps)
        raise InputError(
            f"gamma={gamma} never reaches full tilt in {steps} steps; "
            f"need gamma >= {need:.6g}"
        )
    return lam


def steps_to_full_tilt(gamma: float) -> int:
    """Smallest k with (1+gamma)^k - 1 >= 1, for a finite gamma > 0."""
    check_range("gamma", gamma, 0, strict=True)
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
    """A sweep's final particle positions, their log-weights and the index
    of each particle's ancestor."""

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
    """The sampler's settings, each checked at construction: ``particles``
    is an integer >= 1 and ``seed`` one >= 0; ``alpha``, ``gamma`` and
    ``ess_frac`` are finite numbers above 0, ``ess_frac`` at most 1.
    alpha = +inf (the untilted prior) is rejected; a tiny finite alpha such
    as 1e-300 is legal and fails at run time with ``DegenerateEnsembleError``
    once exp(r/alpha) overflows."""

    particles: int = 16
    alpha: float = 1.0
    temper_mode: str = "geometric"
    gamma: float = 0.008
    resampling: str = "ssp"
    ess_frac: float = 0.5
    seed: int = 0

    def __post_init__(self):
        check_range("particles", self.particles, 1, count=True)
        check_range("alpha", self.alpha, 0, strict=True)
        check_range("gamma", self.gamma, 0, strict=True)
        check_range("ess_frac", self.ess_frac, 0, strict=True)
        check_range("seed", self.seed, 0, count=True)
        if self.ess_frac > 1.0:
            raise InputError(f"ess_frac must be at most 1, got {self.ess_frac!r}")
        if self.temper_mode not in TEMPER_MODES:
            raise InputError(f"temper_mode must be one of {', '.join(TEMPER_MODES)}, got {self.temper_mode!r}")
        if self.resampling not in RESAMPLING_SCHEMES:
            raise InputError(f"resampling must be one of {', '.join(RESAMPLING_SCHEMES)}, got {self.resampling!r}")
        if self.temper_mode == "adaptive" and self.ess_frac * self.particles <= 1.0:
            raise InputError("adaptive tempering needs ess_frac * particles > 1")
        if self.temper_mode == "adaptive" and self.ess_frac >= 1.0:
            raise InputError(
                "adaptive tempering needs ess_frac < 1: the ESS of N equal weights rounds below N, "
                "so a target of N is never met and lambda would stay 0"
            )


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
    grad: np.ndarray | None,
    r_hat: np.ndarray,
    log_weights: np.ndarray,
    lam_src: float | np.ndarray,
    lam_dst: float | np.ndarray,
    noise: np.ndarray,
    t: int,
    *,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    alpha: float,
):
    """One weighted step t -> t-1 for ``(n, d)`` rows of particles.

    ``score``, ``grad`` and ``r_hat`` belong to ``x`` at time t (see
    :func:`_denoised_at`): ``grad`` is the gradient of r_hat at ``(x, t)``,
    or ``None`` for an unguided step; ``noise`` is per row.  ``lam_src`` and
    ``lam_dst`` are each a scalar shared by every row or one value per row;
    a scalar gives the bits of the array that repeats it, with no row mask.
    The engine passes scalars whenever its sweeps share lambda (geometric,
    ``off`` and one-sweep runs) and per-row arrays for several adaptive
    sweeps.  The proposal is a Gaussian approximation of the locally
    optimal kernel: the reverse-kernel mean
    mu = (x + beta_t score) / sqrt(1 - beta_t), shifted on rows with
    lam_dst > 0 (when ``grad`` is given) by sigma_t^2 (lam_dst / alpha) times
    ``grad``, plus sigma_t * noise; the step t=1 is noiseless and unshifted.
    A shifted row whose gradient is not finite raises
    :class:`GuidanceExplosionError` naming its row number in ``x`` (row
    sweep * N + particle of the engine's stacked sweeps); a row that is not
    shifted is not checked.  The log-weights gain the increment

      log p_theta(x_prev | x) - log m(x_prev | x)
        + (lam_dst / alpha) r_hat_prev - (lam_src / alpha) r_hat,

    with r_hat_prev the denoised reward of x_prev at time t-1.  The shift
    depends on ``x`` alone, so the increment is exact.  A step that shifts
    no row (unguided, lam_dst = 0 on every row, or the noiseless t = 1
    step) adds the kernel/proposal ratio as a scalar 0.0, the bits that the
    two equal log-densities give every finite row.  A row whose x_prev is
    not finite then keeps a finite weight when its r_hat_prev is finite (a
    bounded reward), so the engine checks positions as well as weights.

    The new rows take one provider evaluation at t-1: r_hat_prev, their
    score for the next reverse mean and, on a guided step whose next step is
    noisy, the gradient for the next shift, from one ``score_jacobian``
    call; otherwise one ``score`` call (none at t-1 = 0).

    Returns:
        ``(x_prev, score_prev, grad_prev, r_hat_prev, log_weights)`` at
        time t-1, ``grad_prev`` being ``None`` where no gradient was taken.
    """
    sigma = schedule.sigma(t)
    mu = reverse_mean(schedule, x, score, t)
    mean = mu
    if grad is not None and sigma > 0.0:
        if np.ndim(lam_dst) == 0:
            if lam_dst > 0.0:
                GuidanceExplosionError.check(t, grad, None)
                mean = mu + (sigma**2) * (lam_dst / alpha) * grad
        else:
            tilted = lam_dst > 0.0
            if tilted.any():
                # a slice, not a row mask, when every row is tilted: masking
                # copies the rows, a visible cost on a pool of 640 rows
                rows = slice(None) if tilted.all() else tilted
                GuidanceExplosionError.check(t, grad[rows], tilted)
                mean = mu.copy()
                mean[rows] += (sigma**2) * (lam_dst[rows, None] / alpha) * grad[rows]
    x_prev = mean + sigma * noise
    kernel_term = 0.0 if mean is mu else _log_normal_iso(x_prev, mu, sigma) - _log_normal_iso(x_prev, mean, sigma)
    r_hat_prev, score_prev, grad_prev = _denoised_at(reward, provider, schedule, x_prev, t - 1, grad is not None)
    log_weights = log_weights + kernel_term + (lam_dst / alpha) * r_hat_prev - (lam_src / alpha) * r_hat
    return x_prev, score_prev, grad_prev, r_hat_prev, log_weights


def _denoised_at(reward, provider, schedule, x, t: int, guided: bool):
    """``(r_hat, score, grad)`` of the rows ``x`` at time t from one provider
    evaluation.  ``grad``, the gradient of r_hat, is taken when ``guided``
    and the step from t is noisy (t >= 2), and is ``None`` otherwise."""
    if guided and t > 0 and schedule.sigma(t) > 0.0:
        return denoised_reward_gradient(reward, provider, schedule, x, t)
    return (*denoised_reward(reward, provider, schedule, x, t), None)


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
    index, or a suite's stream and rep indices), all integers >= 0."""
    check_range("seed", seed, 0, count=True)
    for index in path:
        check_range("path index", index, 0, count=True)
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def run_das(
    config: SmcConfig,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    reward: RewardModel,
    guided_proposal: bool = True,
    *,
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
    runs one independent sweep per seed instead, all in one engine call.
    Sweep s of a multi-sweep run equals a lone run seeded by its seed, bit for
    bit.

    Returns:
        ``(ensemble, trace)`` for one sweep: the ensemble holds unweighted
        draws after a terminal resampling pass; the trace retains the
        weighted ensemble.  With ``seeds``, ``(positions, traces)``: the
        draws of every sweep concatenated, shape ``(S * N, d)``, and one
        trace per sweep.
    """
    if seeds is not None:
        for seed in seeds:
            check_range("seed", seed, 0, count=True)
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
    the concatenation of :func:`run_das` at those seeds.  It is one
    :func:`pooled_runs` block at ``config.seed``.

    Returns:
        ``(positions, traces)`` with positions of shape ``(sweeps * N, d)``.
    """
    return pooled_runs(config, provider, schedule, reward, [config.seed], sweeps * config.particles, guided_proposal)[0]


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
    check_range("samples", samples, 1, count=True)
    sweeps = -(-samples // config.particles)
    seeds = [derive_sweep_seed(base, s) for base in bases for s in range(sweeps)]
    pts, traces = run_das(config, provider, schedule, reward, guided_proposal, seeds=seeds)
    rows = sweeps * config.particles
    return [(pts[b * rows:b * rows + samples], traces[b * sweeps:(b + 1) * sweeps]) for b in range(len(bases))]


def _check_finite(t: int, x: np.ndarray, log_weights: np.ndarray):
    """Raise if a position (``x`` of shape ``(S, N, d)``), denoised reward or
    log-weight of an ``(S, N)`` batch is not finite, naming the first such
    sweep and its particles.  The rows are scanned only when an array holds
    such an entry.

    A non-finite denoised reward makes its log-weight non-finite (its
    lambda / alpha multiple is NaN or infinite even at lambda = 0), so the
    log-weights stand for both.  Positions are tested too: on a step that
    shifts no row, a non-finite position need not make its weight
    non-finite (see :func:`transition`).
    """
    if np.isfinite(x).all() and np.isfinite(log_weights).all():
        return
    bad = ~(np.isfinite(x).all(axis=-1) & np.isfinite(log_weights))
    sweep = int(np.flatnonzero(bad.any(axis=1))[0])
    particles = np.flatnonzero(bad[sweep]).tolist()
    raise DegenerateEnsembleError(
        f"non-finite position, denoised reward or log-weight at t={t} in sweep {sweep}, particles {particles}"
    )


def _run_sweeps(config, provider, schedule, reward, guided, seeds):
    """Advance one sweep per seed, all together on stacked ``(S * N, d)``
    rows (row sweep * N + particle).

    Each step calls :func:`transition` once on the stacked rows, and
    :func:`ess` once for all sweeps; noise, resampling and the adaptive
    temperature solve stay per sweep, on that sweep's own generator, in the
    order a lone sweep would make them.  The rows' score and, when
    ``guided``, the gradient of r_hat for the next shift are taken at T and
    then returned by each transition; a resample gathers them with the rows.
    The step records go into one :class:`TraceColumns`, which every sweep's
    trace views.
    """
    n_sweeps, n, d = len(seeds), config.particles, provider.dim
    alpha = config.alpha
    t_steps = schedule.steps
    ess_threshold = config.ess_frac * n
    log_n = np.log(n)
    adaptive = config.temper_mode == "adaptive"
    # lambda by diffusion time t when the sweeps share it: the ramp, or 1 (off)
    lambdas = geometric_lambdas(config.gamma, t_steps) if config.temper_mode == "geometric" else np.ones(t_steps + 1)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed)) for seed in seeds]
    sweep_index = np.arange(n_sweeps)[:, None]
    identity = np.arange(n)
    cols = TraceColumns(n_sweeps, t_steps)
    noise = np.empty((n_sweeps, n, d))
    noise_rows = noise.reshape(-1, d)
    # each sweep's normal draw and its block of the noise, bound once
    draws = [(rng.standard_normal, out) for rng, out in zip(rngs, noise)]
    scratch = np.empty(n)

    x = np.concatenate([rng.standard_normal((n, d)) for rng in rngs])
    rh_val, score_cache, grad = _denoised_at(reward, provider, schedule, x, t_steps, guided)
    rh_val = rh_val.reshape(n_sweeps, n)
    # adaptive sweeps each have their own lambda; otherwise all share one
    lam_cur = np.zeros(n_sweeps) if adaptive else float(lambdas[t_steps])
    lw = (np.reshape(lam_cur, (-1, 1)) / alpha) * rh_val
    _check_finite(t_steps, x.reshape(n_sweeps, n, d), lw)
    ancestors = None  # the last step's; None while it resampled no sweep

    for i, t in enumerate(range(t_steps, 0, -1)):
        if adaptive:
            delta = np.array([
                solve_for_delta(lw[s], rh_val[s], ess_threshold, lam_cur[s], alpha)
                for s in range(n_sweeps)
            ])
            lam_next = np.minimum(lam_cur + delta, 1.0)
            lw = lw + (delta[:, None] / alpha) * rh_val
            # both reward terms at the frozen temperature: per row, or a
            # scalar when one sweep runs
            lam_src = lam_dst = np.repeat(lam_next, n) if n_sweeps > 1 else float(lam_next[0])
        else:
            lam_next = lam_dst = float(lambdas[t - 1])
            lam_src = float(lambdas[t])

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
            # row sweep * N + ancestor of the stacked (S * N, d) rows
            rows = (ancestors + n * sweep_index).ravel()
            x, score_cache = x[rows], score_cache[rows]
            if grad is not None:
                grad = grad[rows]
            rh_val = rh_val[sweep_index, ancestors]
            lw = np.where(resampled[:, None], 0.0, lw)

        for draw, out in draws:
            draw(out=out)
        x, score_cache, grad, rh_val, lw = transition(
            x, score_cache, grad, rh_val.ravel(), lw.ravel(), lam_src, lam_dst, noise_rows, t,
            provider=provider, schedule=schedule, reward=reward, alpha=alpha,
        )
        rh_val, lw = rh_val.reshape(n_sweeps, n), lw.reshape(n_sweeps, n)
        _check_finite(t - 1, x.reshape(n_sweeps, n, d), lw)
        lam_cur = lam_next

    # every log-weight is finite here (_check_finite), so is every row's top
    cols.log_z[:, t_steps] = _rows_log_norm(lw, lw.max(axis=1), np.empty_like(lw)) - log_n
    if ancestors is None:
        ancestors = np.tile(identity, (n_sweeps, 1))
    x = x.reshape(n_sweeps, n, d)
    exhausted = np.broadcast_to(np.less(lam_cur, 1.0), n_sweeps)
    finals, traces = [], []
    for s, rng in enumerate(rngs):
        weighted = ParticleEnsemble(x[s].copy(), lw[s].copy(), ancestors[s].copy())
        final_anc = resample(lw[s], config.resampling, rng)
        finals.append(ParticleEnsemble(x[s][final_anc], np.zeros(n), final_anc))
        traces.append(SmcTrace(cols, s, weighted, budget_exhausted=bool(exhausted[s])))
    return finals, traces
