"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria marked by long-running sampling studies call the same suite runners
the CLI uses, with the criterion's stated parameters, so the shipped
experiment path is what gets verified.
"""

import itertools
import time

import numpy as np
import pytest

from das import (
    GmmScoreProvider,
    NetScoreProvider,
    QuadraticReward,
    SmcConfig,
    ancestral_sample,
    denoised_reward_gradient,
    emd_capped,
    emd_exact,
    pooled_das,
    tilt_quadratic,
    transition,
)
from das.config import merge_config
from das.gmm import isotropic_gmm
from das.rewards import fig1_top_reward
from das.smc import derive_sweep_seed, geometric_lambdas, steps_to_full_tilt
from das.suites import SUITES
from helpers import backprop_gradcheck, tweedie_x0

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _run_suite(name: str, tmp_path, **overrides):
    spec = SUITES[name]
    cfg = merge_config(spec.defaults, overrides)
    outdir = tmp_path / name
    outdir.mkdir(parents=True, exist_ok=True)
    return spec.runner(cfg, outdir, lambda msg: print(f"  [{name}] {msg}", flush=True))


@pytest.fixture(scope="module")
def fig1_top_run(tmp_path_factory):
    t0 = time.time()
    metrics = _run_suite("fig1-top", tmp_path_factory.mktemp("fig1top"), reps=20)
    metrics["elapsed"] = time.time() - t0
    return metrics


@pytest.fixture(scope="module")
def fig1_bottom_run(tmp_path_factory):
    t0 = time.time()
    metrics = _run_suite("fig1-bottom", tmp_path_factory.mktemp("fig1bot"), reps=20)
    metrics["elapsed"] = time.time() - t0
    return metrics


def _fig1_ordering(num, name, metrics):
    reps = metrics["reps"]
    wins_guid = metrics["das_beats_guidance_by_10pct"]
    wins_smc = metrics["das_beats_untempered_by_10pct"]
    ok = wins_guid >= 18 and wins_smc >= 18 and metrics["elapsed"] < 300
    _report(
        num,
        name,
        ok,
        f"das beats guidance by>=10% in {wins_guid}/{reps}, untempered SMC in "
        f"{wins_smc}/{reps}; elapsed {metrics['elapsed']:.0f}s",
    )


def test_criterion_01_fig1_top_ordering(fig1_top_run):
    _fig1_ordering(1, "fig1-top EMD ordering", fig1_top_run)


def test_criterion_02_fig1_bottom_ordering(fig1_bottom_run):
    _fig1_ordering(2, "fig1-bottom EMD ordering", fig1_bottom_run)


def test_criterion_03_mode_coverage(trained_net_2d, schedule, prior_2d):
    """DAS hits every tilted component of weight > 0.05 in >= 18/20 seeds,
    on both rewards."""
    from das.rewards import fig1_bottom_reward

    net, _ = trained_net_2d
    provider = NetScoreProvider(net, schedule)
    all_ok = []
    details = []
    for tag, reward in [("top", fig1_top_reward()), ("bottom", fig1_bottom_reward())]:
        oracle = tilt_quadratic(prior_2d, reward, 1.0)
        needed = np.flatnonzero(oracle.weights > 0.05)
        hits = 0
        for seed in range(20):
            cfg = SmcConfig(particles=16, alpha=1.0, gamma=0.008, seed=derive_sweep_seed(300, seed))
            pts, _ = pooled_das(cfg, provider, schedule, reward, sweeps=40)
            assign = np.argmax(oracle.responsibilities(pts), axis=1)
            counts = np.bincount(assign, minlength=oracle.n_components)
            hits += int(np.all(counts[needed] > 0))
        all_ok.append(hits >= 18)
        details.append(f"{tag}: {hits}/20 seeds cover all {needed.size} major modes")
    _report(3, "mode coverage", all(all_ok), "; ".join(details))


def test_criterion_04_zero_reward_reduction(schedule, prior_2d):
    """With the reward off, every log-weight is exactly zero and the pooled
    output is distributed as ancestral sampling.  Single-draw EMD between
    *identical* 2D laws still fluctuates by tens of percent (mode-count
    noise), so both sides of the +-20% band are averaged over three
    independent draws."""
    provider = GmmScoreProvider(prior_2d, schedule)
    zero = QuadraticReward.zero(2)
    weights_zero = True
    crosses = []
    for k in range(3):
        cfg = SmcConfig(particles=16, alpha=1.0, gamma=0.008, seed=2026 + k)
        pool, traces = pooled_das(cfg, provider, schedule, zero, sweeps=125)
        weights_zero &= all(
            np.all(t.weighted_final.log_weights == 0.0)
            and all(r.max_log_weight_spread == 0.0 for r in t.rows)
            for t in traces
        )
        crosses.append(
            emd_capped(pool[:2000], ancestral_sample(provider, schedule, 2000, seed=11 + k), seed=k)
        )
    selves = [
        emd_capped(
            ancestral_sample(provider, schedule, 2000, seed=20 + 2 * k),
            ancestral_sample(provider, schedule, 2000, seed=21 + 2 * k),
            seed=k,
        )
        for k in range(3)
    ]
    cross = float(np.mean(crosses))
    self_dist = float(np.mean(selves))
    in_band = 0.8 * self_dist <= cross <= 1.2 * self_dist
    _report(
        4,
        "zero-reward reduction",
        weights_zero and in_band,
        f"log-weights exactly zero: {weights_zero}; EMD cross {cross:.4f} vs self {self_dist:.4f}",
    )


def test_criterion_05_locally_optimal_proposal(schedule):
    """Linear reward b.x on a single-Gaussian prior N(0, I), where r_hat at
    level t is linear with gradient g_t = sqrt(abar_t) b.  The sampler shifts
    by g_t, the gradient at (x_t, t), not by g_{t-1} as the locally optimal
    kernel would, so given x_t its log-weight is a constant plus exactly
    sigma_t (lambda / alpha) (g_{t-1} - g_t) . z for the proposal noise z.
    With that closed form taken out, the weight must be constant."""
    prior = isotropic_gmm(np.zeros((1, 2)), 1.0)
    provider = GmmScoreProvider(prior, schedule)
    reward = QuadraticReward(np.zeros((2, 2)), np.array([0.8, -1.3]))
    lam = geometric_lambdas(0.008, schedule.steps)
    rng = np.random.default_rng(55)
    worst, shipped = 0.0, []
    for t in [int(v) for v in rng.integers(2, schedule.steps + 1, size=5)]:
        x_t = np.repeat(rng.normal(size=(1, 2)) * 1.5, 10_000, axis=0)
        n = x_t.shape[0]
        noise = rng.standard_normal(x_t.shape)
        r_hat, score, grad = denoised_reward_gradient(reward, provider, schedule, x_t, t)
        lw = transition(
            x_t, score, grad, r_hat, np.zeros(n), np.full(n, lam[t]), np.full(n, lam[t - 1]),
            noise, t, provider=provider, schedule=schedule, reward=reward, alpha=1.0,
        )[-1]
        gap = (np.sqrt(schedule.alpha_bar(t - 1)) - np.sqrt(schedule.alpha_bar(t))) * reward.b
        worst = max(worst, float(np.var(lw - lam[t - 1] * schedule.sigma(t) * (noise @ gap))))
        shipped.append(float(np.var(lw)))
    _report(
        5,
        "locally optimal proposal witness",
        worst < 1e-10,
        f"max conditional weight variance {worst:.2e} after the closed-form gap of the shift at (x_t, t), "
        f"which alone gives {min(shipped):.2e}-{max(shipped):.2e}",
    )


def test_criterion_06_convergence_rate(tmp_path):
    t0 = time.time()
    metrics = _run_suite("convergence", tmp_path, seeds=200)
    elapsed = time.time() - t0
    slope = metrics["slopes"]["reward"]
    ok = -0.65 <= slope <= -0.35 and elapsed < 600
    _report(
        6,
        "estimator convergence rate",
        ok,
        f"log-log RMSE slope {slope:.3f} over N={metrics['particle_counts']}, elapsed {elapsed:.0f}s",
    )


def test_criterion_07_tempering_benefit(tmp_path):
    metrics = _run_suite("variance", tmp_path, seeds=200, efficiency_seeds=20)
    var_ok = metrics["var_tempered"] <= metrics["var_untempered"] and metrics["p_value"] < 0.05
    eff_ok = metrics["efficiency_wins"] >= 15
    _report(
        7,
        "tempering variance benefit",
        var_ok and eff_ok,
        f"var {metrics['var_tempered']:.4f} vs {metrics['var_untempered']:.4f} "
        f"(F={metrics['f_ratio']:.2f}, p={metrics['p_value']:.2e}); particle efficiency "
        f"{metrics['efficiency_wins']}/{metrics['efficiency_seeds']} seeds",
    )


def test_criterion_08_temper_anchors():
    k_slow = steps_to_full_tilt(0.008)
    k_fast = steps_to_full_tilt(0.024)
    by_k = geometric_lambdas(0.008, 100)[::-1]
    ok = 87 <= k_slow <= 91 and 29 <= k_fast <= 31 and by_k[0] == 0.0 and int(np.argmax(by_k >= 1.0)) == k_slow
    _report(8, "tempering schedule anchors", ok, f"gamma=0.008 reaches 1 at k={k_slow}, gamma=0.024 at k={k_fast}")


def test_criterion_09_numerical_gates(trained_net_2d, schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 2))

    worst_score = 0.0
    for t in (5, 50, 95):
        marg = provider.marginal(t)
        s = marg.score(x)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (marg.log_density(x + e) - marg.log_density(x - e)) / (2 * h)
            rel = np.abs(s[:, j] - fd) / np.maximum(np.abs(fd), 1.0)
            worst_score = max(worst_score, float(rel.max()))

    worst_jac = 0.0
    for t in (5, 50, 95):
        _, jac = tweedie_x0(provider, schedule, x, t)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi, _ = tweedie_x0(provider, schedule, x + e, t)
            lo, _ = tweedie_x0(provider, schedule, x - e, t)
            fd = (hi - lo) / (2 * h)
            rel = np.abs(jac[:, :, j] - fd) / np.maximum(np.abs(fd), 1.0)
            worst_jac = max(worst_jac, float(rel.max()))

    net, _ = trained_net_2d
    grad_err = backprop_gradcheck(net)

    prov_net = NetScoreProvider(net, schedule)
    xs = np.linspace(-3, 3, 41)
    grid = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
    rels = []
    for t in (10, 50, 90):
        sn = prov_net.score(grid, t)
        sa = provider.score(grid, t)
        rels.append(np.linalg.norm(sn - sa, axis=1) / np.maximum(np.linalg.norm(sa, axis=1), 1e-12))
    med = float(np.median(np.concatenate(rels)))

    ok = worst_score < 1e-5 and worst_jac < 1e-5 and grad_err < 1e-4 and med < 0.15
    _report(
        9,
        "numerical gates",
        ok,
        f"score FD {worst_score:.1e}, tweedie FD {worst_jac:.1e}, gradcheck {grad_err:.1e}, "
        f"net median score err {med:.3f}",
    )


def test_criterion_10_emd_solver():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 2))
        brute = min(
            np.mean(np.linalg.norm(a - b[list(p)], axis=1)) for p in itertools.permutations(range(4))
        )
        worst = max(worst, abs(emd_exact(a, b) - brute))
    axioms = True
    for _ in range(100):
        x, y, z = (rng.normal(size=(5, 2)) for _ in range(3))
        dxy, dyx = emd_exact(x, y), emd_exact(y, x)
        axioms &= abs(dxy - dyx) < 1e-9
        axioms &= dxy >= 0
        axioms &= dxy <= emd_exact(x, z) + emd_exact(z, y) + 1e-9
        axioms &= emd_exact(x, x.copy()) == 0.0
    _report(10, "EMD solver exactness", worst < 1e-12 and axioms, f"max |exact-brute| {worst:.2e}; axioms {axioms}")


def test_criterion_11_online_loop(tmp_path):
    t0 = time.time()
    metrics = _run_suite("online", tmp_path, seeds=10, rounds=8, budget=1024)
    elapsed = time.time() - t0
    oracle_gap = metrics["oracle_mean_reward"] - metrics["prior_mean_reward"]
    details = []
    ok = elapsed < 600
    for mode, rec in metrics["modes"].items():
        improved = rec["improved_seeds"]
        reach = sum(
            f >= metrics["prior_mean_reward"] + 0.5 * oracle_gap for f in rec["final_mean_rewards"]
        )
        ok = ok and improved >= 9 and reach >= 9
        details.append(f"{mode}: improved {improved}/10, >=50% oracle band {reach}/10")
    _report(11, "online black-box loop", ok, "; ".join(details) + f"; elapsed {elapsed:.0f}s")


def test_criterion_12_swiss_roll(tmp_path):
    t0 = time.time()
    metrics = _run_suite("swiss-roll", tmp_path, reps=10)
    elapsed = time.time() - t0
    ok = metrics["das_wins"] >= 8
    _report(
        12,
        "swiss-roll ordering",
        ok,
        f"das EMD < guidance EMD in {metrics['das_wins']}/{metrics['reps']} seeds; elapsed {elapsed:.0f}s",
    )
