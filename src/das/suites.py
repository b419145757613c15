"""Named experiment suites: each reproduces one toy figure, ablation or
property study, writing samples/metrics/trace artifacts into a directory.

Every suite declares its default flat config; the CLI merges file and flag
overrides (unknown keys are rejected) and passes the resolved mapping to the
runner.  All randomness derives from the ``seed`` key, so runs are
reproducible bit for bit from the echoed config.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

from .baselines import approx_guidance_sample, best_of_n
from .diffusion import GmmScoreProvider, ancestral_sample
from .errors import ConfigError
from .gmm import Gmm, canonical_prior_2d, expected_quadratic_reward, tilt_quadratic
from .metrics import emd_capped, summary_stats
from .online import OnlineConfig, SurrogateConfig, run_online_loop
from .rewards import fig1_bottom_reward, fig1_top_reward, swiss_roll_reward
from .schedule import NoiseSchedule
from .scorenet import NetScoreProvider, TrainConfig, train_denoiser
from .smc import SmcConfig, pooled_das, run_das
from .svgplot import write_scatter
from .swissroll import make_swiss_roll


def _derive(seed: int, *idx: int) -> int:
    return int(np.random.SeedSequence([int(seed), *map(int, idx)]).generate_state(1)[0])


def _pmap(fn: Callable, jobs: list[tuple], workers: int) -> list:
    """Order-preserving map over argument tuples, optionally across processes."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


def _smc_config(cfg: dict, seed: int, temper_mode: str | None = None, particles: int | None = None) -> SmcConfig:
    return SmcConfig(
        particles=int(particles if particles is not None else cfg["smc.particles"]),
        alpha=float(cfg["smc.alpha"]),
        temper_mode=temper_mode if temper_mode is not None else str(cfg["smc.temper_mode"]),
        gamma=float(cfg["smc.gamma"]),
        resampling=str(cfg["smc.resampling"]),
        ess_frac=float(cfg["smc.ess_frac"]),
        seed=seed,
    )


_SMC_DEFAULTS = {
    "smc.particles": 16,
    "smc.alpha": 1.0,
    "smc.temper_mode": "geometric",
    "smc.gamma": 0.008,
    "smc.resampling": "ssp",
    "smc.ess_frac": 0.5,
}

_TRAIN_DEFAULTS = {
    "train.samples": 8192,
    "train.epochs": 1000,
    "train.learning_rate": 1e-3,
    "train.batch_size": 256,
    "train.seed": 0,
}


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=float(cfg["train.learning_rate"]),
        epochs=int(cfg["train.epochs"]),
        batch_size=int(cfg["train.batch_size"]),
        seed=int(cfg["train.seed"]),
    )


def _build_provider(cfg: dict, prior: Gmm, schedule: NoiseSchedule, outdir: Path, log):
    """The sampling backbone: either exact mixture scores or a denoiser
    trained on prior samples (the toy 'pre-trained model')."""
    kind = str(cfg["provider"])
    if kind == "analytic":
        return GmmScoreProvider(prior, schedule)
    if kind != "net":
        raise ConfigError(f"provider must be 'analytic' or 'net', got {kind!r}")
    data = prior.sample(int(cfg["train.samples"]), _derive(int(cfg["train.seed"]), 424242))
    t0 = time.time()
    net, losses = train_denoiser(data, schedule, _train_config(cfg))
    log(f"trained denoiser in {time.time() - t0:.1f}s (final loss {losses[-1]:.4f})")
    net.save(outdir / "denoiser.json")
    return NetScoreProvider(net, schedule)


def _write_samples_csv(path: Path, blocks: list[tuple[str, np.ndarray, int]]):
    """blocks: (method, positions, particles-per-sweep) triples."""
    dim = blocks[0][1].shape[1]
    coords = ",".join(f"x{i}" for i in range(dim))
    with open(path, "w") as fh:
        fh.write(f"method,sweep,particle,{coords}\n")
        for method, pts, per_sweep in blocks:
            for i, row in enumerate(pts):
                sweep, particle = divmod(i, per_sweep)
                fh.write(f"{method},{sweep},{particle}," + ",".join(f"{v:.8g}" for v in row) + "\n")


def _method_record(method, pts, reward, oracle, oracle_draws, self_dist, seed):
    st = summary_stats(pts, reward, oracle)
    return {
        "method": method,
        "emd": emd_capped(pts, oracle_draws, seed=seed),
        "emd_self": self_dist,
        "mean_reward": st.mean_reward,
        "reward_std": st.reward_std,
        "mode_counts": st.per_mode_counts,
        "n": int(len(pts)),
        "seed": int(seed),
    }


# ----------------------------------------------------------------------
# fig1-style sampler comparison
# ----------------------------------------------------------------------


def _fig1_rep(cfg, provider, schedule, reward, oracle, rep):
    """One seeded repetition: pooled samples per method plus their EMDs."""
    seed = int(cfg["seed"])
    n_samples = int(cfg["samples"])
    sweeps = int(cfg["sweeps"]) if cfg.get("sweeps") else -(-n_samples // int(cfg["smc.particles"]))
    oracle_draws = oracle.sample(n_samples, _derive(seed, 1, rep))

    das_pts, das_traces = pooled_das(
        _smc_config(cfg, _derive(seed, 2, rep)), provider, schedule, reward, sweeps
    )
    smc_cfg = _smc_config(cfg, _derive(seed, 3, rep), temper_mode="off")
    smc_pts, _ = pooled_das(
        smc_cfg, provider, schedule, reward, sweeps,
        guided_proposal=(str(cfg["untempered_variant"]) == "guided"),
    )
    guid_pts = approx_guidance_sample(
        provider, schedule, reward, float(cfg["smc.alpha"]),
        float(cfg["guidance_scale"]), n_samples, _derive(seed, 4, rep),
    )
    pts = {"das": das_pts[:n_samples], "smc-no-temper": smc_pts[:n_samples], "guidance": guid_pts}
    emds = {k: emd_capped(v, oracle_draws, seed=rep) for k, v in pts.items()}
    return pts, emds, oracle_draws, das_traces


def _run_fig1(cfg: dict, outdir: Path, log, reward):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.from_config({k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("schedule.")})
    prior = canonical_prior_2d()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)
    provider = _build_provider(cfg, prior, schedule, outdir, log)
    n_samples = int(cfg["samples"])
    reps = int(cfg["reps"])

    jobs = [(cfg, provider, schedule, reward, oracle, rep) for rep in range(reps)]
    results = _pmap(_fig1_rep, jobs, int(cfg["workers"]))

    wins_guid = wins_smc = 0
    per_rep = []
    for rep, (_, emds, _, _) in enumerate(results):
        wins_guid += emds["das"] < 0.9 * emds["guidance"]
        wins_smc += emds["das"] < 0.9 * emds["smc-no-temper"]
        per_rep.append({"rep": rep, **{k: float(v) for k, v in emds.items()}})

    pts0, emds0, oracle_draws0, das_traces0 = results[0]
    pretrained = ancestral_sample(provider, schedule, n_samples, _derive(seed, 5))
    self_dist = emd_capped(
        oracle.sample(n_samples, _derive(seed, 6)), oracle.sample(n_samples, _derive(seed, 7)), seed=0
    )
    panels = {
        "pretrained": pretrained,
        "target-oracle": oracle_draws0,
        "guidance": pts0["guidance"],
        "smc-no-temper": pts0["smc-no-temper"],
        "das": pts0["das"],
    }
    records = [
        _method_record(name, p, reward, oracle, oracle_draws0, self_dist, seed)
        for name, p in panels.items()
    ]
    for name, p in panels.items():
        write_scatter(outdir / f"panel_{name}.svg", [(name, p)], title=name)
    per_sweep = int(cfg["smc.particles"])
    _write_samples_csv(
        outdir / "samples.csv",
        [(name, p, per_sweep if name in ("das", "smc-no-temper") else len(p)) for name, p in panels.items()],
    )
    (outdir / "trace_das.csv").write_text(das_traces0[0].to_csv())

    metrics = {
        "methods": records,
        "per_rep_emd": per_rep,
        "reps": reps,
        "das_beats_guidance_by_10pct": int(wins_guid),
        "das_beats_untempered_by_10pct": int(wins_smc),
    }
    log(
        f"das EMD beats guidance by >=10% in {wins_guid}/{reps} reps, "
        f"untempered SMC in {wins_smc}/{reps}"
    )
    return metrics


_FIG1_DEFAULTS = {
    "seed": 0,
    "provider": "net",
    "samples": 640,
    "sweeps": None,
    "reps": 20,
    "guidance_scale": 1.0,
    "untempered_variant": "unguided",
    "workers": 1,
    "schedule.steps": 100,
    "schedule.beta_start": 1e-4,
    "schedule.beta_end": 0.02,
    **_SMC_DEFAULTS,
    **_TRAIN_DEFAULTS,
}


def run_fig1_top(cfg, outdir, log):
    return _run_fig1(cfg, outdir, log, fig1_top_reward())


def run_fig1_bottom(cfg, outdir, log):
    return _run_fig1(cfg, outdir, log, fig1_bottom_reward())


# ----------------------------------------------------------------------
# swiss roll
# ----------------------------------------------------------------------


def _tilted_reference(points: np.ndarray, reward, alpha: float, n: int, seed: int) -> np.ndarray:
    logw = reward.value(points) / alpha
    w = np.exp(logw - logw.max())
    w /= w.sum()
    rng = np.random.default_rng(seed)
    return points[rng.choice(len(points), size=n, replace=True, p=w)]


def run_swiss_roll(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    reward = swiss_roll_reward()
    alpha = float(cfg["smc.alpha"])
    data = make_swiss_roll(int(cfg["train.samples"]), float(cfg["data_noise"]), _derive(seed, 0))
    t0 = time.time()
    net, _ = train_denoiser(data, schedule, _train_config(cfg))
    log(f"trained 3D denoiser in {time.time() - t0:.1f}s")
    net.save(outdir / "denoiser.json")
    provider = NetScoreProvider(net, schedule)

    big = make_swiss_roll(200_000, float(cfg["data_noise"]), _derive(seed, 1))
    n_samples = int(cfg["samples"])
    reps = int(cfg["reps"])
    sweeps = int(cfg["sweeps"]) if cfg.get("sweeps") else -(-n_samples // int(cfg["smc.particles"]))
    wins = 0
    per_rep = []
    for rep in range(reps):
        ref = _tilted_reference(big, reward, alpha, n_samples, _derive(seed, 2, rep))
        das_pts, _ = pooled_das(_smc_config(cfg, _derive(seed, 3, rep)), provider, schedule, reward, sweeps)
        das_pts = das_pts[:n_samples]
        guid_pts = approx_guidance_sample(
            provider, schedule, reward, alpha, 1.0, n_samples, _derive(seed, 4, rep)
        )
        e_das = emd_capped(das_pts, ref, seed=rep)
        e_guid = emd_capped(guid_pts, ref, seed=rep)
        wins += e_das < e_guid
        per_rep.append({"rep": rep, "das": float(e_das), "guidance": float(e_guid)})
        if rep == 0:
            for name, pts in [("das", das_pts), ("guidance", guid_pts), ("target", ref)]:
                write_scatter(outdir / f"panel_{name}_xy.svg", [(name, pts[:, :2])], title=f"{name} (x, y)")
                write_scatter(
                    outdir / f"panel_{name}_xz.svg", [(name, pts[:, [0, 2]])], title=f"{name} (x, z)"
                )
            _write_samples_csv(
                outdir / "samples.csv",
                [("das", das_pts, int(cfg["smc.particles"])), ("guidance", guid_pts, len(guid_pts)),
                 ("target", ref, len(ref))],
            )
    log(f"das EMD < guidance EMD in {wins}/{reps} seeds")
    return {"per_rep_emd": per_rep, "das_wins": int(wins), "reps": reps}


_SWISS_DEFAULTS = {
    "seed": 0,
    "samples": 640,
    "sweeps": None,
    "reps": 10,
    "data_noise": 0.1,
    "workers": 1,
    **_SMC_DEFAULTS,
    **_TRAIN_DEFAULTS,
}


# ----------------------------------------------------------------------
# tempering ablation
# ----------------------------------------------------------------------


def run_ablate_tempering(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    reward = fig1_top_reward()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)
    provider = GmmScoreProvider(prior, schedule)
    n_samples = int(cfg["samples"])
    seeds = int(cfg["seeds"])

    modes = [
        ("gamma-0.008", dict(temper_mode="geometric", gamma=0.008)),
        ("gamma-0.024", dict(temper_mode="geometric", gamma=0.024)),
        ("adaptive", dict(temper_mode="adaptive", gamma=0.008)),
        ("no-temper", dict(temper_mode="off", gamma=0.008)),
    ]
    rows = []
    for mode_index, (name, mode_kw) in enumerate(modes):
        for particles in [int(v) for v in cfg["particle_counts"]]:
            sweeps = -(-n_samples // particles)
            emds, min_ess = [], []
            for s in range(seeds):
                base = SmcConfig(
                    particles=particles, alpha=alpha, resampling=str(cfg["smc.resampling"]),
                    ess_frac=float(cfg["smc.ess_frac"]), seed=_derive(seed, mode_index, particles, s),
                    **mode_kw,
                )
                pts, traces = pooled_das(base, provider, schedule, reward, sweeps)
                ref = oracle.sample(n_samples, _derive(seed, 9, particles, s))
                emds.append(emd_capped(pts[:n_samples], ref, seed=s))
                min_ess.append(min(t.ess_series().min() for t in traces))
            rows.append(
                {
                    "mode": name,
                    "particles": particles,
                    "emd_mean": float(np.mean(emds)),
                    "emd_std": float(np.std(emds)),
                    "min_ess_mean": float(np.mean(min_ess)),
                }
            )
            log(f"{name} N={particles}: EMD {rows[-1]['emd_mean']:.3f} +- {rows[-1]['emd_std']:.3f}")
    with open(outdir / "ablation.csv", "w") as fh:
        fh.write("mode,particles,emd_mean,emd_std,min_ess_mean\n")
        for r in rows:
            fh.write(f"{r['mode']},{r['particles']},{r['emd_mean']:.6g},{r['emd_std']:.6g},{r['min_ess_mean']:.6g}\n")
    return {"rows": rows}


_ABLATE_DEFAULTS = {
    "seed": 0,
    "samples": 320,
    "seeds": 8,
    "particle_counts": [4, 8, 16],
    "workers": 1,
    **_SMC_DEFAULTS,
}


# ----------------------------------------------------------------------
# estimator convergence rate (asymptotic exactness)
# ----------------------------------------------------------------------


def _convergence_chunk(cfg, provider, schedule, reward, particles, seeds, seed_base):
    ests = {"reward": [], "x1": [], "x1sq": []}
    for s in range(seeds):
        run_cfg = _smc_config(cfg, _derive(seed_base, particles, s), particles=particles)
        _, trace = run_das(run_cfg, provider, schedule, reward)
        wf = trace.weighted_final
        w = wf.normalized_weights()
        ests["reward"].append(float(w @ reward.value(wf.positions)))
        ests["x1"].append(float(w @ wf.positions[:, 0]))
        ests["x1sq"].append(float(w @ wf.positions[:, 0] ** 2))
    return ests


def run_convergence(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    reward = fig1_top_reward()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)
    provider = GmmScoreProvider(prior, schedule)

    truth = {
        "reward": expected_quadratic_reward(oracle, reward),
        "x1": float(oracle.weights @ oracle.means[:, 0]),
        "x1sq": float(
            oracle.weights @ (oracle.covariances[:, 0, 0] + oracle.means[:, 0] ** 2)
        ),
    }
    counts = [int(v) for v in cfg["particle_counts"]]
    seeds = int(cfg["seeds"])
    jobs = [(cfg, provider, schedule, reward, n, seeds, _derive(seed, 31, n)) for n in counts]
    chunks = _pmap(_convergence_chunk, jobs, int(cfg["workers"]))

    rmse = {phi: [] for phi in truth}
    for ests in chunks:
        for phi in truth:
            err = np.array(ests[phi]) - truth[phi]
            rmse[phi].append(float(np.sqrt(np.mean(err**2))))
    slopes = {}
    for phi in truth:
        slope, intercept = np.polyfit(np.log(counts), np.log(rmse[phi]), 1)
        slopes[phi] = float(slope)
        log(f"phi={phi}: RMSE {np.round(rmse[phi], 4).tolist()} slope {slope:.3f}")
    with open(outdir / "convergence.csv", "w") as fh:
        fh.write("particles," + ",".join(f"rmse_{phi}" for phi in truth) + "\n")
        for i, n in enumerate(counts):
            fh.write(f"{n}," + ",".join(f"{rmse[phi][i]:.6g}" for phi in truth) + "\n")
    return {
        "particle_counts": counts,
        "rmse": rmse,
        "slopes": slopes,
        "oracle": truth,
        "seeds": seeds,
    }


# gamma 0.024 here: the faster ramp keeps small particle counts out of the
# degenerate-ESS regime on this schedule (see the ablate-tempering suite), so
# the RMSE curve reflects the CLT rate the study is about
_CONVERGENCE_DEFAULTS = {
    "seed": 0,
    "particle_counts": [4, 8, 16, 32, 64, 128],
    "seeds": 200,
    "workers": 1,
    **{**_SMC_DEFAULTS, "smc.gamma": 0.024},
}


# ----------------------------------------------------------------------
# tempering variance benefit
# ----------------------------------------------------------------------


def _variance_chunk(cfg, provider, schedule, reward, temper_mode, seeds, seed_base):
    ests = []
    for s in range(seeds):
        run_cfg = _smc_config(cfg, _derive(seed_base, s), temper_mode=temper_mode)
        _, trace = run_das(run_cfg, provider, schedule, reward)
        wf = trace.weighted_final
        ests.append(float(wf.normalized_weights() @ reward.value(wf.positions)))
    return ests


def run_variance(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    reward = fig1_top_reward()
    provider = GmmScoreProvider(prior, schedule)
    oracle = tilt_quadratic(prior, reward, float(cfg["smc.alpha"]))
    seeds = int(cfg["seeds"])

    jobs = [
        (cfg, provider, schedule, reward, "geometric", seeds, _derive(seed, 41)),
        (cfg, provider, schedule, reward, "off", seeds, _derive(seed, 42)),
    ]
    tempered, untempered = _pmap(_variance_chunk, jobs, min(int(cfg["workers"]), 2))
    var_t = float(np.var(tempered, ddof=1))
    var_u = float(np.var(untempered, ddof=1))
    f_ratio = var_u / var_t
    df = seeds - 1
    p_value = float(stats.f.sf(f_ratio, df, df))
    log(f"seed-variance tempered {var_t:.5f} vs untempered {var_u:.5f} (F={f_ratio:.2f}, p={p_value:.4f})")

    # particle-efficiency: EMD reached by untempered N=2*base vs tempered N=base
    n_samples = int(cfg["samples"])
    base_n = int(cfg["smc.particles"])
    eff_seeds = int(cfg["efficiency_seeds"])
    wins = 0
    per_seed = []
    for s in range(eff_seeds):
        ref = oracle.sample(n_samples, _derive(seed, 43, s))
        cfg_t = _smc_config(cfg, _derive(seed, 44, s))
        pts_t, _ = pooled_das(cfg_t, provider, schedule, reward, -(-n_samples // base_n))
        cfg_u = _smc_config(cfg, _derive(seed, 45, s), temper_mode="off", particles=2 * base_n)
        pts_u, _ = pooled_das(cfg_u, provider, schedule, reward, -(-n_samples // (2 * base_n)))
        e_t = emd_capped(pts_t[:n_samples], ref, seed=s)
        e_u = emd_capped(pts_u[:n_samples], ref, seed=s)
        wins += e_t <= e_u
        per_seed.append({"seed": s, "tempered": float(e_t), "untempered_2n": float(e_u)})
    log(f"tempered N={base_n} reaches untempered N={2*base_n} EMD in {wins}/{eff_seeds} seeds")

    metrics = {
        "var_tempered": var_t,
        "var_untempered": var_u,
        "f_ratio": f_ratio,
        "p_value": p_value,
        "estimates_mean": {"tempered": float(np.mean(tempered)), "untempered": float(np.mean(untempered))},
        "efficiency_wins": int(wins),
        "efficiency_seeds": eff_seeds,
        "efficiency_per_seed": per_seed,
    }
    with open(outdir / "estimates.csv", "w") as fh:
        fh.write("seed,tempered,untempered\n")
        for i, (a, b) in enumerate(zip(tempered, untempered)):
            fh.write(f"{i},{a:.8g},{b:.8g}\n")
    return metrics


_VARIANCE_DEFAULTS = {
    "seed": 0,
    "seeds": 200,
    "samples": 640,
    "efficiency_seeds": 20,
    "workers": 1,
    **_SMC_DEFAULTS,
}


# ----------------------------------------------------------------------
# inference-compute scaling
# ----------------------------------------------------------------------


def run_scaling(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    reward = fig1_top_reward()
    provider = GmmScoreProvider(prior, schedule)
    outputs = int(cfg["outputs"])
    rows = []
    for particles in [int(v) for v in cfg["particle_counts"]]:
        sweeps = -(-outputs // particles)
        das_pts, _ = pooled_das(
            _smc_config(cfg, _derive(seed, 51, particles), particles=particles),
            provider, schedule, reward, sweeps,
        )
        smc_pts, _ = pooled_das(
            _smc_config(cfg, _derive(seed, 52, particles), temper_mode="off", particles=particles),
            provider, schedule, reward, sweeps, guided_proposal=False,
        )
        bon_pts = best_of_n(provider, schedule, reward, particles, outputs, _derive(seed, 53, particles))
        row = {"particles": particles}
        for name, pts in [("das", das_pts[:outputs]), ("smc", smc_pts[:outputs]), ("best_of_n", bon_pts)]:
            vals = reward.value(pts)
            row[f"{name}_mean_reward"] = float(vals.mean())
            row[f"{name}_se"] = float(vals.std() / np.sqrt(len(vals)))
        rows.append(row)
        log(f"N={particles}: das {row['das_mean_reward']:.3f}, smc {row['smc_mean_reward']:.3f}, "
            f"best-of-n {row['best_of_n_mean_reward']:.3f}")
    with open(outdir / "scaling.csv", "w") as fh:
        cols = list(rows[0])
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(str(r[c]) for c in cols) + "\n")
    return {"rows": rows}


_SCALING_DEFAULTS = {
    "seed": 0,
    "outputs": 128,
    "particle_counts": [1, 2, 4, 8, 16, 32, 64],
    "workers": 1,
    **_SMC_DEFAULTS,
}


# ----------------------------------------------------------------------
# online black-box optimization
# ----------------------------------------------------------------------


def run_online(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    black_box = fig1_top_reward()
    provider = GmmScoreProvider(prior, schedule)
    oracle_mean = expected_quadratic_reward(tilt_quadratic(prior, black_box, float(cfg["alpha"])), black_box)
    prior_mean = expected_quadratic_reward(prior, black_box)

    out = {"oracle_mean_reward": oracle_mean, "prior_mean_reward": prior_mean, "modes": {}}
    for mode in ("ucb", "bootstrap"):
        histories = []
        for s in range(int(cfg["seeds"])):
            ocfg = OnlineConfig(
                rounds=int(cfg["rounds"]),
                budget=int(cfg["budget"]),
                alpha=float(cfg["alpha"]),
                noise_std=float(cfg["noise_std"]),
                surrogate=SurrogateConfig(
                    mode=mode, beta=float(cfg["beta"]), ridge=float(cfg["ridge"]),
                    members=int(cfg["members"]),
                ),
                smc=_smc_config(cfg, 0),
                seed=_derive(seed, 61, s) if mode == "ucb" else _derive(seed, 62, s),
            )
            hist = run_online_loop(black_box, provider, schedule, ocfg)
            histories.append(hist)
            (outdir / f"history_{mode}_seed{s}.csv").write_text(hist.to_csv())
        finals = [h.rows[-1].mean_true_reward for h in histories]
        firsts = [h.rows[0].mean_true_reward for h in histories]
        improved = sum(f > i for f, i in zip(finals, firsts))
        frac = [(f - prior_mean) / (oracle_mean - prior_mean) for f in finals]
        histories[-1].surrogate.save(outdir / f"surrogate_{mode}.json")
        out["modes"][mode] = {
            "final_mean_rewards": [float(v) for v in finals],
            "first_round_rewards": [float(v) for v in firsts],
            "improved_seeds": int(improved),
            "seeds": int(cfg["seeds"]),
            "oracle_band_fraction": [float(v) for v in frac],
        }
        log(f"{mode}: improved in {improved}/{cfg['seeds']} seeds; "
            f"median oracle-band fraction {np.median(frac):.2f}")
    return out


_ONLINE_DEFAULTS = {
    "seed": 0,
    "rounds": 8,
    "budget": 1024,
    "alpha": 1.0,
    "noise_std": 0.1,
    "beta": 1.0,
    "ridge": 1e-3,
    "members": 8,
    "seeds": 10,
    "workers": 1,
    **_SMC_DEFAULTS,
}


# ----------------------------------------------------------------------
# score-net training
# ----------------------------------------------------------------------


def run_train_score(cfg, outdir, log):
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    data = prior.sample(int(cfg["train.samples"]), _derive(int(cfg["train.seed"]), 424242))
    t0 = time.time()
    net, losses = train_denoiser(data, schedule, _train_config(cfg))
    log(f"trained in {time.time() - t0:.1f}s; loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    net.save(outdir / "denoiser.json")
    with open(outdir / "loss_curve.csv", "w") as fh:
        fh.write("epoch,loss\n")
        for i, v in enumerate(losses, start=1):
            fh.write(f"{i},{v:.8g}\n")

    prov_net = NetScoreProvider(net, schedule)
    prov_ana = GmmScoreProvider(prior, schedule)
    xs = np.linspace(-3, 3, 41)
    grid = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
    errors = {}
    for t in (10, 50, 90):
        sn, sa = prov_net.score(grid, t), prov_ana.score(grid, t)
        rel = np.linalg.norm(sn - sa, axis=1) / np.maximum(np.linalg.norm(sa, axis=1), 1e-12)
        errors[str(t)] = float(np.median(rel))
        log(f"t={t}: median score rel error {errors[str(t)]:.4f}")
    draws = ancestral_sample(prov_net, schedule, 1000, _derive(int(cfg["seed"]), 1))
    write_scatter(
        outdir / "net_samples.svg",
        [("net", draws), ("prior", prior.sample(1000, 2))],
        title="trained sampler vs prior",
    )
    return {"loss_first": losses[0], "loss_final": losses[-1], "median_score_rel_error": errors}


_TRAIN_SCORE_DEFAULTS = {"seed": 0, "workers": 1, **_TRAIN_DEFAULTS}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    description: str
    defaults: dict
    runner: Callable
    expected_minutes: float


SUITES: dict[str, SuiteSpec] = {
    s.name: s
    for s in [
        SuiteSpec(
            "fig1-top",
            "2D mixture, reward -x^2/100 - y^2: sampler comparison vs exact tilted target",
            _FIG1_DEFAULTS,
            run_fig1_top,
            4.0,
        ),
        SuiteSpec(
            "fig1-bottom",
            "2D mixture, reward -x^2 - (y-1)^2/10: sampler comparison vs exact tilted target",
            _FIG1_DEFAULTS,
            run_fig1_bottom,
            4.0,
        ),
        SuiteSpec(
            "swiss-roll",
            "3D swiss roll with trained denoiser: tempered SMC vs approximate guidance",
            _SWISS_DEFAULTS,
            run_swiss_roll,
            5.0,
        ),
        SuiteSpec(
            "ablate-tempering",
            "tempering schemes x particle counts: EMD and ESS behaviour",
            _ABLATE_DEFAULTS,
            run_ablate_tempering,
            4.0,
        ),
        SuiteSpec(
            "convergence",
            "estimator RMSE vs particle count: asymptotic-exactness rate study",
            _CONVERGENCE_DEFAULTS,
            run_convergence,
            3.0,
        ),
        SuiteSpec(
            "variance",
            "seed-variance of estimates with and without tempering, plus particle efficiency",
            _VARIANCE_DEFAULTS,
            run_variance,
            3.0,
        ),
        SuiteSpec(
            "scaling",
            "mean reward vs inference compute for tempered SMC, plain SMC and best-of-N",
            _SCALING_DEFAULTS,
            run_scaling,
            2.0,
        ),
        SuiteSpec(
            "online",
            "online black-box optimization with UCB / bootstrap surrogates",
            _ONLINE_DEFAULTS,
            run_online,
            4.0,
        ),
        SuiteSpec(
            "train-score",
            "train the toy denoiser and report score accuracy artifacts",
            _TRAIN_SCORE_DEFAULTS,
            run_train_score,
            1.5,
        ),
    ]
}
