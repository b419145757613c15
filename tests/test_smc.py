from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    MlpDenoiser,
    NetScoreProvider,
    QuadraticReward,
    SmcConfig,
    TemperSchedule,
    approx_guidance_sample,
    denoised_reward,
    denoised_reward_gradient,
    emd_capped,
    ess,
    pooled_das,
    run_das,
    solve_for_delta,
    transition,
)
from das import smc
from das.diffusion import posterior_mean
from das.errors import DegenerateEnsembleError, InputError
from das.gmm import canonical_prior_2d
from das.rewards import fig1_bottom_reward, fig1_top_reward
from das.schedule import NoiseSchedule
from das.smc import (
    RESAMPLING_SCHEMES,
    ParticleEnsemble,
    derive_sweep_seed,
    steps_to_full_tilt,
)

ZERO2 = QuadraticReward.zero(2)


# ----------------------------------------------------------------------
# tempering schedule
# ----------------------------------------------------------------------


def test_temper_anchor_slow():
    temper = TemperSchedule.geometric(0.008, 100)
    ks = np.arange(101)
    lam_by_k = temper.lambdas[::-1]  # index by completed steps
    first = int(np.argmax(lam_by_k >= 1.0))
    assert 87 <= first <= 91
    assert steps_to_full_tilt(0.008) == first
    assert lam_by_k[0] == 0.0
    del ks


def test_temper_anchor_fast():
    assert 29 <= steps_to_full_tilt(0.024) <= 31
    temper = TemperSchedule.geometric(0.024, 100)
    lam_by_k = temper.lambdas[::-1]
    assert 29 <= int(np.argmax(lam_by_k >= 1.0)) <= 31


def test_temper_endpoints():
    temper = TemperSchedule.geometric(0.008, 100)
    assert temper.lam(100) == 0.0
    assert temper.lam(0) == 1.0
    assert np.all(temper.lambdas[1:] <= temper.lambdas[:-1])


def test_temper_too_small_gamma_rejected():
    with pytest.raises(InputError):
        TemperSchedule.geometric(1e-4, 100)


def test_temper_constant_mode():
    temper = TemperSchedule.constant(1.0, 100)
    assert temper.lam(100) == 1.0 and temper.lam(0) == 1.0


def test_temper_validation():
    with pytest.raises(InputError):
        TemperSchedule(lambdas=np.array([1.0, 0.5, 0.7]))  # not monotone
    with pytest.raises(InputError):
        TemperSchedule(lambdas=np.array([1.2, 0.0]))


# ----------------------------------------------------------------------
# effective sample size
# ----------------------------------------------------------------------


def test_ess_uniform():
    assert ess(np.zeros(16)) == pytest.approx(16.0, abs=1e-12)


def test_ess_one_hot():
    lw = np.full(8, -np.inf)
    lw[3] = 0.0
    assert ess(lw) == pytest.approx(1.0, abs=1e-12)


def test_ess_half_half():
    lw = np.log(np.array([0.5, 0.5, 1e-300, 1e-300]))
    assert ess(lw) == pytest.approx(2.0, abs=1e-9)


def test_ess_degenerate():
    with pytest.raises(DegenerateEnsembleError):
        ess(np.full(4, -np.inf))


# ----------------------------------------------------------------------
# proposal and weights
# ----------------------------------------------------------------------


def _setup(prior, schedule):
    return GmmScoreProvider(prior, schedule)


def _step(x_t, t, schedule, provider, reward, temper, alpha, noise, guided=True):
    """One shipped transition t -> t-1 from weight zero on the rows ``x_t``;
    returns the proposed rows and their incremental log-weights."""
    n = x_t.shape[0]
    r_hat, score = denoised_reward(reward, provider, schedule, x_t, t)
    x_prev, _, _, lw = transition(
        x_t, score, r_hat, np.zeros(n), np.full(n, temper.lam(t)), np.full(n, temper.lam(t - 1)), noise, t,
        provider=provider, schedule=schedule, reward=reward, alpha=alpha, guided=guided,
    )
    return x_prev, lw


def test_propose_zero_reward_is_reverse_kernel(schedule, prior_2d):
    """With the reward off the proposal is the reverse kernel itself:
    its mean is the posterior mean and the weight does not move."""
    provider = _setup(prior_2d, schedule)
    temper = TemperSchedule.geometric(0.008, schedule.steps)
    x_t = np.array([[0.4, -0.2]])
    t = 50
    noise = np.random.default_rng(0).standard_normal(x_t.shape)
    x_prev, lw = _step(x_t, t, schedule, provider, ZERO2, temper, 1.0, noise)
    expect = posterior_mean(provider, schedule, x_t, t) + schedule.sigma(t) * noise
    np.testing.assert_allclose(x_prev, expect, rtol=0, atol=1e-12)
    assert np.all(lw == 0.0)


def test_propose_lambda_zero_unguided(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    temper = TemperSchedule.constant(0.0, schedule.steps)
    x_t = np.array([[1.0, 1.0]])
    noise = np.random.default_rng(5).standard_normal(x_t.shape)
    a, _ = _step(x_t, 100, schedule, provider, fig1_top_reward(), temper, 1.0, noise)
    b, _ = _step(x_t, 100, schedule, provider, ZERO2, temper, 1.0, noise)
    np.testing.assert_array_equal(a, b)


def test_propose_shift_magnitude(schedule, prior_2d):
    """Mean shift must equal sigma^2 (lambda/alpha) grad for a hand-set gradient."""
    provider = _setup(prior_2d, schedule)
    t = 70
    lam = 0.37
    alpha = 2.0
    temper = TemperSchedule(lambdas=np.full(schedule.steps + 1, lam))
    x_t = np.array([[0.3, 0.9]])

    class LinearReward:
        b = np.array([1.5, -0.5])

        def value(self, x):
            return x @ self.b

        def gradient(self, x):
            return np.broadcast_to(self.b, x.shape).copy()

    grad = denoised_reward_gradient(LinearReward(), provider, schedule, x_t, t - 1)
    noise = np.random.default_rng(3).standard_normal(x_t.shape)
    guided, _ = _step(x_t, t, schedule, provider, LinearReward(), temper, alpha, noise)
    plain, _ = _step(x_t, t, schedule, provider, ZERO2, temper, alpha, noise)
    expect = schedule.sigma(t) ** 2 * (lam / alpha) * grad
    np.testing.assert_allclose(guided - plain, expect, atol=1e-12)
    unguided, _ = _step(x_t, t, schedule, provider, LinearReward(), temper, alpha, noise, guided=False)
    np.testing.assert_array_equal(unguided, plain)


def test_propose_rejects_bad_t(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    temper = TemperSchedule.geometric(0.008, schedule.steps)
    with pytest.raises(InputError):
        _step(np.zeros((1, 2)), 0, schedule, provider, ZERO2, temper, 1.0, np.zeros((1, 2)))


def test_log_weight_zero_reward_exactly_zero(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    temper = TemperSchedule.geometric(0.008, schedule.steps)
    rng = np.random.default_rng(1)
    x_t = rng.normal(size=(6, 2))
    for t in (100, 37, 1):
        _, lw = _step(x_t, t, schedule, provider, ZERO2, temper, 1.0, rng.standard_normal(x_t.shape))
        assert np.all(lw == 0.0)


def test_initial_weights_uniform_when_lambda_T_zero(schedule, prior_2d):
    """The geometric ramp starts at lambda_T = 0, so the run's first step sees
    equal weights whatever the reward."""
    provider = _setup(prior_2d, schedule)
    _, trace = run_das(SmcConfig(particles=16, seed=2), provider, schedule, fig1_top_reward())
    first = trace.rows[0]
    assert first.t == schedule.steps
    assert first.max_log_weight_spread == 0.0
    assert first.ess == pytest.approx(16.0, abs=1e-12) and not first.resampled


def test_locally_optimal_proposal_witness(schedule, single_gaussian_2d):
    """Linear reward on a single-Gaussian prior: the Gaussian proposal is the
    locally optimal kernel, so the weight is constant given x_t."""
    provider = _setup(single_gaussian_2d, schedule)
    reward = QuadraticReward(np.zeros((2, 2)), np.array([0.8, -1.3]))
    temper = TemperSchedule.geometric(0.008, schedule.steps)
    rng = np.random.default_rng(4)
    for t in [int(v) for v in rng.integers(2, 101, size=5)]:
        x_t = rng.normal(size=(1, 2)) * 1.5
        tiled = np.repeat(x_t, 10_000, axis=0)
        _, lw = _step(tiled, t, schedule, provider, reward, temper, 1.0, rng.standard_normal(tiled.shape))
        assert np.var(lw) < 1e-10


def test_run_das_calls_transition_once_per_step(schedule, prior_2d, monkeypatch):
    """The engine makes its steps through the public transition: a geometric
    T=100 run calls it exactly 100 times, once per step on all rows."""
    calls = []
    shipped = smc.transition

    def counting(x, *args, **kwargs):
        calls.append(x.shape)
        return shipped(x, *args, **kwargs)

    monkeypatch.setattr(smc, "transition", counting)
    run_das(SmcConfig(particles=16, seed=0), _setup(prior_2d, schedule), schedule, fig1_top_reward())
    assert calls == [(16, 2)] * schedule.steps


# ----------------------------------------------------------------------
# adaptive tempering helper
# ----------------------------------------------------------------------


def test_solve_for_delta_constant_rhat():
    lw = np.zeros(8)
    assert solve_for_delta(lw, np.full(8, 3.3), 4.0, 0.25, 1.0) == pytest.approx(0.75)


def test_solve_for_delta_lambda_one():
    assert solve_for_delta(np.zeros(4), np.arange(4.0), 2.0, 1.0, 1.0) == 0.0


def test_solve_for_delta_already_below_target():
    lw = np.array([0.0, -50.0])  # ESS ~ 1 already
    assert solve_for_delta(lw, np.array([0.0, 1.0]), 1.6, 0.0, 1.0) == 0.0


def test_solve_for_delta_two_particle_root():
    lw = np.zeros(2)
    rhat = np.array([0.0, 1.0])

    def ess_of(delta):
        w = np.array([1.0, np.exp(delta)])
        w /= w.sum()
        return 1.0 / np.sum(w**2)

    # ESS at the interval edge is ~1.648, so target 1.7 has an interior root
    target = 1.7
    got = solve_for_delta(lw, rhat, target, 0.0, 1.0)
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if ess_of(mid) >= target:
            lo = mid
        else:
            hi = mid
    assert got == pytest.approx(lo, abs=1e-8)
    assert ess_of(got) == pytest.approx(target, abs=1e-6)
    # target 1.6 is unreachable inside [0, 1]: clamp to the full increment
    assert solve_for_delta(lw, rhat, 1.6, 0.0, 1.0) == 1.0


def test_solve_for_delta_validates_target():
    with pytest.raises(InputError):
        solve_for_delta(np.zeros(4), np.zeros(4), 1.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------


def test_run_das_deterministic(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=8, seed=99)
    a, _ = run_das(cfg, provider, schedule, fig1_top_reward())
    b, _ = run_das(cfg, provider, schedule, fig1_top_reward())
    np.testing.assert_array_equal(a.positions, b.positions)


def test_run_das_zero_reward_reduces_to_ancestral(schedule, prior_2d):
    """With the reward off every per-step weight is exactly zero and pooled
    output matches plain ancestral sampling distributionally."""
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=16, seed=5)
    ens, trace = run_das(cfg, provider, schedule, ZERO2)
    assert np.all(trace.weighted_final.log_weights == 0.0)
    assert all(r.max_log_weight_spread == 0.0 for r in trace.rows)
    assert trace.resample_count() == 0

    pooled, _ = pooled_das(cfg, provider, schedule, ZERO2, sweeps=32)
    from das import ancestral_sample

    anc1 = ancestral_sample(provider, schedule, 512, seed=901)
    anc2 = ancestral_sample(provider, schedule, 512, seed=902)
    self_dist = emd_capped(anc1, anc2, seed=0)
    cross = emd_capped(pooled, ancestral_sample(provider, schedule, 512, seed=903), seed=0)
    assert cross < 1.5 * self_dist


def test_run_das_single_particle_is_guidance_chain(schedule, prior_2d):
    """N=1 with tempering off degenerates to one approximate-guidance chain.

    The RNG stream layouts coincide, so matching seeds give bit-identical
    output, which settles the distributional A/B far more sharply than an
    EMD band could (at these sample sizes the EMD between *identical* laws
    fluctuates by tens of percent from mode-count noise alone)."""
    provider = _setup(prior_2d, schedule)
    reward = fig1_top_reward()
    cfg = SmcConfig(particles=1, temper_mode="off", seed=17)
    for sweep in range(5):
        seed = derive_sweep_seed(17, sweep)
        ens, _ = run_das(replace(cfg, seed=seed), provider, schedule, reward)
        chain = approx_guidance_sample(provider, schedule, reward, 1.0, 1.0, 1, seed=seed)
        np.testing.assert_array_equal(ens.positions, chain)


def test_run_das_trace_schema(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=8, seed=1)
    _, trace = run_das(cfg, provider, schedule, fig1_top_reward())
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "step,t,lambda,ess,resampled,mean_r_hat,max_log_weight_spread"
    assert len(lines) == schedule.steps + 1
    assert len(trace.rows) == schedule.steps
    for row in trace.rows:
        assert 1.0 <= row.ess <= cfg.particles + 1e-9


def test_run_das_invalid_config():
    with pytest.raises(InputError):
        SmcConfig(particles=0)
    with pytest.raises(InputError):
        SmcConfig(alpha=0.0)
    with pytest.raises(InputError):
        SmcConfig(ess_frac=0.0)
    with pytest.raises(InputError):
        SmcConfig(temper_mode="sometimes")
    with pytest.raises(InputError, match="ess_frac \\* particles > 1"):
        SmcConfig(particles=2, temper_mode="adaptive", ess_frac=0.5)
    SmcConfig(particles=2, temper_mode="geometric", ess_frac=0.5)
    SmcConfig(particles=3, temper_mode="adaptive", ess_frac=0.5)


def test_particle_ensemble_validation():
    with pytest.raises(InputError):
        ParticleEnsemble(0, np.full((2, 2), np.nan), np.zeros(2), np.arange(2))
    with pytest.raises(InputError):
        ParticleEnsemble(0, np.zeros((2, 2)), np.zeros(3), np.arange(2))


# ----------------------------------------------------------------------
# adaptive tempering runs
# ----------------------------------------------------------------------


def test_adaptive_zero_reward_jumps_to_one(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=16, temper_mode="adaptive", seed=3)
    ens, trace = run_das(cfg, provider, schedule, ZERO2)
    lams = trace.lambda_series()
    assert lams[0] == 1.0
    assert np.all(trace.weighted_final.log_weights == 0.0)
    assert not trace.budget_exhausted


def test_adaptive_lambda_monotone_reaches_one(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=16, temper_mode="adaptive", seed=21)
    _, trace = run_das(cfg, provider, schedule, fig1_top_reward())
    lams = trace.lambda_series()
    assert np.all(np.diff(lams) >= 0)
    assert lams[-1] == 1.0 or trace.budget_exhausted
    assert lams[-1] == 1.0  # this task's budget is ample


def test_adaptive_ess_stays_near_target(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    reward = fig1_top_reward()
    for seed in range(20):
        cfg = SmcConfig(particles=16, temper_mode="adaptive", seed=seed)
        _, trace = run_das(cfg, provider, schedule, reward)
        target = cfg.ess_frac * cfg.particles
        assert trace.ess_series().min() >= 0.5 * target


def test_adaptive_matches_geometric_quality(schedule, prior_2d):
    """Adaptive tempering ends up at the same target quality as the fixed
    geometric ramp: pooled EMDs to the exact tilted target agree within 25%
    (averaged over repetitions; single-pool EMD is mode-count noisy)."""
    from das import tilt_quadratic

    provider = _setup(prior_2d, schedule)
    reward = fig1_top_reward()
    oracle = tilt_quadratic(prior_2d, reward, 1.0)
    geo, ada = [], []
    for rep in range(3):
        ref = oracle.sample(640, 5000 + rep)
        cfg_g = SmcConfig(particles=16, gamma=0.008, seed=derive_sweep_seed(1, rep))
        pts_g, _ = pooled_das(cfg_g, provider, schedule, reward, 40)
        cfg_a = SmcConfig(particles=16, temper_mode="adaptive", seed=derive_sweep_seed(2, rep))
        pts_a, _ = pooled_das(cfg_a, provider, schedule, reward, 40)
        geo.append(emd_capped(pts_g, ref, seed=rep))
        ada.append(emd_capped(pts_a, ref, seed=rep))
    ratio = np.mean(ada) / np.mean(geo)
    assert 0.75 <= ratio <= 1.25


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "smc_engine_golden.npz"
GOLDEN_CASES = [
    (scheme, mode, True)
    for scheme in ("ssp", "systematic", "multinomial")
    for mode in ("geometric", "adaptive", "off")
] + [("ssp", "geometric", False)]


@pytest.mark.parametrize("scheme,mode,guided", GOLDEN_CASES)
def test_engine_reproduces_recorded_sweeps(schedule, prior_2d, scheme, mode, guided):
    """Outputs recorded from the sweep-by-sweep sampler that preceded the
    batched engine: pooled_das on fig1-bottom at alpha=0.1, 3 sweeps of 8
    particles, seed 3.  Resampling fires on 35-114 of the 300 sweep-steps."""
    golden = np.load(GOLDEN)
    key = f"{scheme}-{mode}-{'guided' if guided else 'unguided'}"
    cfg = SmcConfig(particles=8, alpha=0.1, temper_mode=mode, resampling=scheme, seed=3)
    pos, traces = pooled_das(cfg, _setup(prior_2d, schedule), schedule, fig1_bottom_reward(), 3, guided)
    np.testing.assert_array_equal(
        np.stack([[r.resampled for r in t.rows] for t in traces]), golden[f"{key}/resampled"]
    )
    np.testing.assert_array_equal(
        np.stack([t.weighted_final.ancestor_indices for t in traces]), golden[f"{key}/ancestors"]
    )
    np.testing.assert_allclose(pos, golden[f"{key}/positions"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        np.stack([t.weighted_final.log_weights for t in traces]), golden[f"{key}/log_weights"], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        np.stack([t.lambda_series() for t in traces]), golden[f"{key}/lambdas"], rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("mode", ["geometric", "adaptive"])
def test_pooled_equals_concatenated_single_sweeps(schedule, prior_2d, mode):
    provider = _setup(prior_2d, schedule)
    reward = fig1_bottom_reward()
    cfg = SmcConfig(particles=8, alpha=0.1, temper_mode=mode, seed=11)
    pooled, traces = pooled_das(cfg, provider, schedule, reward, 4)
    for s, trace in enumerate(traces):
        ens, single = run_das(replace(cfg, seed=derive_sweep_seed(cfg.seed, s)), provider, schedule, reward)
        np.testing.assert_array_equal(pooled[8 * s : 8 * (s + 1)], ens.positions)
        np.testing.assert_array_equal(trace.weighted_final.log_weights, single.weighted_final.log_weights)
        np.testing.assert_array_equal(trace.weighted_final.ancestor_indices, single.weighted_final.ancestor_indices)
        np.testing.assert_array_equal(trace.lambda_series(), single.lambda_series())
        assert [r.resampled for r in trace.rows] == [r.resampled for r in single.rows]


def test_run_das_seeds_equal_lone_runs_and_sweeps_is_shorthand(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    reward = fig1_bottom_reward()
    cfg = SmcConfig(particles=6, alpha=0.1, seed=21)
    seeds = [5, 123456789, 5]
    pooled, traces = run_das(cfg, provider, schedule, reward, seeds=seeds)
    for s, seed in enumerate(seeds):
        ens, single = run_das(replace(cfg, seed=seed), provider, schedule, reward)
        np.testing.assert_array_equal(pooled[6 * s : 6 * (s + 1)], ens.positions)
        assert traces[s].to_csv() == single.to_csv()
        np.testing.assert_array_equal(traces[s].log_z_increments(), single.log_z_increments())
    by_count, _ = run_das(cfg, provider, schedule, reward, sweeps=3)
    by_seed, _ = run_das(cfg, provider, schedule, reward, seeds=[derive_sweep_seed(21, s) for s in range(3)])
    np.testing.assert_array_equal(by_count, by_seed)
    with pytest.raises(InputError):
        run_das(cfg, provider, schedule, reward, sweeps=2, seeds=[1, 2])
    with pytest.raises(InputError):
        run_das(cfg, provider, schedule, reward, seeds=[])


@pytest.mark.parametrize("samples, sweeps", [(16, 2), (21, 3)])
def test_pooled_runs_blocks_equal_pooled_das_at_each_base(schedule, prior_2d, samples, sweeps):
    """Block b of one pooled_runs call is pooled_das at config.seed =
    bases[b], cut to ``samples`` draws (21 is not a multiple of the 8
    particles), bit for bit."""
    provider = _setup(prior_2d, schedule)
    reward = fig1_bottom_reward()
    cfg = SmcConfig(particles=8, alpha=0.1, seed=99)
    bases = [7, 123456789, 7]
    blocks = smc.pooled_runs(cfg, provider, schedule, reward, bases, samples)
    assert len(blocks) == len(bases)
    for base, (pts, traces) in zip(bases, blocks):
        pooled, lone_traces = pooled_das(replace(cfg, seed=base), provider, schedule, reward, sweeps)
        assert pts.shape == (samples, 2)
        np.testing.assert_array_equal(pts, pooled[:samples])
        assert len(traces) == sweeps
        for trace, lone in zip(traces, lone_traces):
            assert trace.to_csv() == lone.to_csv()
            np.testing.assert_array_equal(trace.weighted_final.positions, lone.weighted_final.positions)
            np.testing.assert_array_equal(trace.weighted_final.log_weights, lone.weighted_final.log_weights)


def test_log_z_increments_match_a_hand_computation():
    """Three steps, tempering off, resampling whenever ESS < N: replay the
    run with the same generator and sum log(mean(exp(lw))) at each resample
    and at the terminal pass."""
    schedule = NoiseSchedule.linear(steps=3, beta_start=0.05, beta_end=0.3)
    provider = _setup(canonical_prior_2d(), schedule)
    reward, alpha, n, seed = fig1_bottom_reward(), 0.5, 8, 4
    cfg = SmcConfig(particles=n, alpha=alpha, temper_mode="off", resampling="systematic",
                    ess_frac=1.0, seed=seed)
    _, trace = run_das(cfg, provider, schedule, reward)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = rng.standard_normal((n, 2))
    r_hat, score = denoised_reward(reward, provider, schedule, x, 3)
    lw = r_hat / alpha
    ones = np.ones(n)
    expected = []
    for i, t in enumerate((3, 2, 1)):
        w = np.exp(lw)
        assert w.sum() ** 2 / (w**2).sum() == pytest.approx(trace.rows[i].ess, rel=1e-12)
        assert trace.rows[i].resampled
        expected.append(np.log(np.mean(w)))
        anc = smc.resample(lw, "systematic", rng)
        x, score, r_hat, lw = x[anc], score[anc], r_hat[anc], np.zeros(n)
        x, score, r_hat, lw = transition(
            x, score, r_hat, lw, ones, ones, rng.standard_normal((n, 2)), t,
            provider=provider, schedule=schedule, reward=reward, alpha=alpha,
        )
    expected.append(np.log(np.mean(np.exp(lw))))
    np.testing.assert_allclose(trace.log_z_increments(), expected, rtol=1e-12, atol=0)
    assert trace.log_z() == pytest.approx(sum(expected), rel=1e-12)
    assert all(v != 0.0 for v in expected)


def test_log_z_is_zero_under_a_zero_reward(schedule, prior_2d):
    provider = _setup(prior_2d, schedule)
    _, traces = pooled_das(SmcConfig(particles=8, seed=6), provider, schedule, ZERO2, 3)
    for trace in traces:
        assert np.all(trace.log_z_increments() == 0.0)
        assert trace.log_z() == 0.0
        assert trace.log_z_increments().shape == (schedule.steps + 1,)


def test_pooled_equals_concatenated_with_mlp_and_odd_sweep_size(schedule):
    """Five particles a sweep: rows of one sweep straddle BLAS row tiles of
    the stacked call, so this fails unless the provider is row-stable."""
    provider = NetScoreProvider(MlpDenoiser(d=2, t_max=schedule.steps, seed=2), schedule)
    cfg = SmcConfig(particles=5, seed=3)
    pooled, traces = pooled_das(cfg, provider, schedule, fig1_top_reward(), 3)
    for s, trace in enumerate(traces):
        ens, single = run_das(replace(cfg, seed=derive_sweep_seed(cfg.seed, s)), provider, schedule, fig1_top_reward())
        np.testing.assert_array_equal(pooled[5 * s : 5 * (s + 1)], ens.positions)
        np.testing.assert_array_equal(trace.weighted_final.log_weights, single.weighted_final.log_weights)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _scipy_ess(lw):
    from scipy.special import logsumexp

    ln_w = lw - logsumexp(lw)
    return float(np.exp(-logsumexp(2.0 * ln_w)))


class CountingProvider:
    """Provider proxy that records the time index and rows of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = {"score": [], "score_jacobian": []}

    def score(self, x, t):
        self.calls["score"].append((t, x.tobytes()))
        return self.inner.score(x, t)

    def score_jacobian(self, x, t):
        self.calls["score_jacobian"].append((t, x.tobytes()))
        return self.inner.score_jacobian(x, t)


def test_guided_step_evaluates_provider_once_per_point(schedule, prior_2d):
    """A guided geometric run takes the score for r_hat once per step and the
    score with its Jacobian once per guided step, never both at one point."""
    provider = CountingProvider(GmmScoreProvider(prior_2d, schedule))
    run_das(SmcConfig(seed=0), provider, schedule, fig1_top_reward())
    calls = provider.calls
    assert len(calls["score"]) == schedule.steps
    assert len(calls["score_jacobian"]) == schedule.steps - 1
    assert not set(calls["score"]) & set(calls["score_jacobian"])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ess_rows_match_single_calls_and_scipy_reference():
    """Batches whose rows all have a finite largest entry take the batched
    pass, the others the row kernel row by row; either way each row's ESS
    has the bits of its own 1-D call.  The row lengths straddle numpy's
    switch to pairwise summation at 8 terms."""
    rng = np.random.default_rng(0)
    one_hot = np.full((3, 16), -np.inf)
    one_hot[np.arange(3), [0, 7, 15]] = 0.0
    partly = rng.normal(scale=5.0, size=(4, 16))
    partly[:, ::3] = -np.inf
    batches = [rng.normal(scale=3.0, size=(5, 16)), one_hot, partly, rng.normal(size=(1, 640))]
    batches += [rng.normal(scale=3.0, size=(5, n)) for n in (1, 2, 7, 8, 9, 17)]
    for n in (1, 9, 17):
        # rows whose largest entry is NaN or +inf, beside finite rows
        mixed = rng.normal(scale=3.0, size=(4, n))
        mixed[1, -1], mixed[2, 0] = np.nan, np.inf
        batches.append(mixed)
    for batch in batches:
        rows = ess(batch)
        assert rows.shape == (batch.shape[0],)
        for k, (row, value) in enumerate(zip(batch, rows)):
            single = ess(row)
            assert isinstance(single, float) and _bits(single) == _bits(value)
            # a lone sweep's (1, N) call takes the row kernel too
            lone = ess(batch[k:k + 1])
            assert lone.shape == (1,) and _bits(lone[0]) == _bits(value)
            assert value == pytest.approx(_scipy_ess(row), rel=1e-12, nan_ok=True)


def test_ess_rejects_a_row_of_zero_weights():
    lw = np.zeros((3, 4))
    lw[1] = -np.inf
    with pytest.raises(DegenerateEnsembleError):
        ess(lw)
    lw[0, 0] = np.nan
    with pytest.raises(DegenerateEnsembleError):
        ess(lw)


def test_normalized_weights_of_zero_weights_raise():
    ensemble = ParticleEnsemble(0, np.zeros((4, 2)), np.full(4, -np.inf), np.arange(4))
    with pytest.raises(DegenerateEnsembleError):
        ensemble.normalized_weights()


@pytest.mark.parametrize("n", [1, 16, 640])
def test_log_normal_iso_bits_match_the_whole_row_sum(n):
    """Column-by-column sums below 8 coordinates give the bits of numpy's
    own reduction; a numpy release that sums short rows in another order
    fails here rather than in a golden file."""
    rng = np.random.default_rng(n)
    sigma = 0.37
    for d in range(1, 10):
        x, mean = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        reference = -0.5 * d * np.log(2.0 * np.pi * sigma**2) - ((x - mean) ** 2).sum(-1) / (2.0 * sigma**2)
        assert _bits(smc._log_normal_iso(x, mean, sigma)) == _bits(reference), d


class _NanAfter:
    """Reward whose value is ``bad`` for one row of every batch from the
    ``calls``-th value call on (each engine step makes one call)."""

    def __init__(self, inner, calls, row, bad):
        self.inner, self.calls, self.row, self.bad = inner, calls, row, bad
        self.made = 0

    def value(self, x):
        v = self.inner.value(x)
        if self.made >= self.calls:
            v[self.row] = self.bad
        self.made += 1
        return v

    def gradient(self, x):
        return self.inner.gradient(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
def test_non_finite_reward_fails_loudly(schedule, prior_2d, scheme, bad):
    """Call 40 scores x_{60}: the error names that time, the sweep and the
    particle (row 11 of a pool of 8-particle sweeps is sweep 1, particle 3)."""
    provider = _setup(prior_2d, schedule)
    cfg = SmcConfig(particles=8, resampling=scheme, seed=2)
    with pytest.raises(DegenerateEnsembleError, match=r"t=60 in sweep 0, particles \[3\]"):
        run_das(cfg, provider, schedule, _NanAfter(fig1_top_reward(), 40, 3, bad))
    with pytest.raises(DegenerateEnsembleError, match=r"t=60 in sweep 1, particles \[3\]"):
        pooled_das(cfg, provider, schedule, _NanAfter(fig1_top_reward(), 40, 11, bad), 3)
