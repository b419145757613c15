"""Named experiment suites: each reproduces one toy figure, ablation or
property study, writing samples/metrics/trace artifacts into a directory.

Every suite declares its default flat config; the CLI merges file and flag
overrides (unknown keys and values of another kind are rejected) and passes
the resolved mapping to the runner.  The ``smc.*``, ``train.*`` and online
keys take their defaults from the library configs' fields and reach them
through ``config.build_config``.  A study runs all reps or seeds of one
sampler configuration as one engine call (``smc.pooled_runs``).  All
randomness derives from the ``seed`` key, so runs are reproducible bit for
bit from the echoed config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

from .baselines import approx_guidance_sample, best_of_n
from .config import build_config, library_defaults
from .diffusion import GmmScoreProvider, ancestral_sample
from .gmm import Gmm, canonical_prior_2d, expected_quadratic_reward, tilt_quadratic
from .metrics import emd_capped, summary_stats
from .online import OnlineConfig, SurrogateConfig, run_online_loop
from .rewards import fig1_bottom_reward, fig1_top_reward, swiss_roll_reward
from .schedule import NoiseSchedule
from .scorenet import NetScoreProvider, TrainConfig, train_denoiser
from .smc import SmcConfig, derive_sweep_seed, pooled_runs, run_das
from .svgplot import write_scatter
from .swissroll import make_swiss_roll
from .tables import csv_text


def _smc_config(cfg: dict, **fixed) -> SmcConfig:
    return build_config(SmcConfig, cfg, "smc.", **fixed)


def _smc_defaults(*omit: str) -> dict:
    return library_defaults(SmcConfig, "smc.", omit=("seed", *omit))


_TRAIN_DEFAULTS = {"train.samples": 8192, **library_defaults(TrainConfig, "train.")}


def _weighted_mean(trace, values) -> float:
    """The self-normalised estimate of E[values(x)] from a sweep's weighted
    final ensemble."""
    final = trace.weighted_final
    return float(final.normalized_weights() @ values(final.positions))


def _exact_mixture():
    """The estimator studies' setting: fig1-top reward, 2-D prior, exact scores."""
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    return schedule, prior, fig1_top_reward(), GmmScoreProvider(prior, schedule)


_TRAINED_NETS: dict[tuple, tuple] = {}


def _prior_draws(cfg: dict, prior: Gmm) -> np.ndarray:
    """The ``train.samples`` prior draws the toy 'pre-trained model' learns."""
    return prior.sample(cfg["train.samples"], derive_sweep_seed(cfg["train.seed"], 424242))


def _trained_net(cfg: dict, data: np.ndarray, schedule: NoiseSchedule, outdir: Path, log):
    """The denoiser trained on ``data`` and its per-epoch losses; the net is
    saved to ``outdir/denoiser.json``.

    Training is deterministic, so a trained denoiser is kept for the rest of
    the process, keyed by the ``train.*`` values, the training data and the
    schedule: runs that ask for the same one train it once.
    """
    train = build_config(TrainConfig, cfg, "train.")
    key = (train, data.shape, data.tobytes(), schedule.betas.tobytes())
    if key in _TRAINED_NETS:
        net, losses = _TRAINED_NETS[key]
        log(f"reused the denoiser trained earlier in this process (final loss {losses[-1]:.4f})")
    else:
        t0 = time.time()
        net, losses = train_denoiser(data, schedule, train)
        log(f"trained denoiser in {time.time() - t0:.1f}s; loss {losses[0]:.4f} -> {losses[-1]:.4f}")
        _TRAINED_NETS[key] = net, losses
    net.save(outdir / "denoiser.json")
    return net, losses


def _build_provider(cfg: dict, prior: Gmm, schedule: NoiseSchedule, outdir: Path, log):
    """The sampling backbone: exact mixture scores or the trained denoiser."""
    if cfg["provider"] == "analytic":
        return GmmScoreProvider(prior, schedule)
    return NetScoreProvider(_trained_net(cfg, _prior_draws(cfg, prior), schedule, outdir, log)[0], schedule)


def _write_samples_csv(path: Path, blocks: list[tuple[str, np.ndarray, int]]):
    """blocks: (method, positions, particles-per-sweep) triples."""
    path.write_text(csv_text(
        ["method", "sweep", "particle", *(f"x{i}" for i in range(blocks[0][1].shape[1]))],
        ([method, *divmod(i, per_sweep), *(f"{v:.8g}" for v in row)]
         for method, pts, per_sweep in blocks for i, row in enumerate(pts)),
    ))


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


def _run_fig1(cfg: dict, outdir: Path, log, reward):
    seed = int(cfg["seed"])
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)
    provider = _build_provider(cfg, prior, schedule, outdir, log)
    n_samples = int(cfg["samples"])
    reps = int(cfg["reps"])

    das_runs = pooled_runs(
        _smc_config(cfg), provider, schedule, reward,
        [derive_sweep_seed(seed, 2, rep) for rep in range(reps)], n_samples,
    )
    smc_runs = pooled_runs(
        _smc_config(cfg, temper_mode="off"), provider, schedule, reward,
        [derive_sweep_seed(seed, 3, rep) for rep in range(reps)], n_samples,
        guided_proposal=cfg["untempered_variant"] == "guided",
    )
    wins_guid = wins_smc = 0
    per_rep = []
    for rep in range(reps):
        oracle_draws = oracle.sample(n_samples, derive_sweep_seed(seed, 1, rep))
        guid_pts = approx_guidance_sample(
            provider, schedule, reward, alpha, float(cfg["guidance_scale"]), n_samples, derive_sweep_seed(seed, 4, rep)
        )
        pts = {"das": das_runs[rep][0], "smc-no-temper": smc_runs[rep][0], "guidance": guid_pts}
        emds = {k: emd_capped(v, oracle_draws, seed=rep) for k, v in pts.items()}
        wins_guid += emds["das"] < 0.9 * emds["guidance"]
        wins_smc += emds["das"] < 0.9 * emds["smc-no-temper"]
        per_rep.append({"rep": rep, **{k: float(v) for k, v in emds.items()}})
        if rep == 0:
            pts0, oracle_draws0 = pts, oracle_draws

    pretrained = ancestral_sample(provider, schedule, n_samples, derive_sweep_seed(seed, 5))
    self_dist = emd_capped(
        oracle.sample(n_samples, derive_sweep_seed(seed, 6)),
        oracle.sample(n_samples, derive_sweep_seed(seed, 7)),
        seed=0,
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
    (outdir / "trace_das.csv").write_text(das_runs[0][1][0].to_csv())

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
    "reps": 20,
    "guidance_scale": 1.0,
    "untempered_variant": "unguided",
    **_smc_defaults(),
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
    data = make_swiss_roll(int(cfg["train.samples"]), float(cfg["data_noise"]), derive_sweep_seed(seed, 0))
    provider = NetScoreProvider(_trained_net(cfg, data, schedule, outdir, log)[0], schedule)

    big = make_swiss_roll(200_000, float(cfg["data_noise"]), derive_sweep_seed(seed, 1))
    n_samples = int(cfg["samples"])
    reps = int(cfg["reps"])
    das_runs = pooled_runs(
        _smc_config(cfg), provider, schedule, reward,
        [derive_sweep_seed(seed, 3, rep) for rep in range(reps)], n_samples,
    )
    wins = 0
    per_rep = []
    for rep in range(reps):
        ref = _tilted_reference(big, reward, alpha, n_samples, derive_sweep_seed(seed, 2, rep))
        das_pts = das_runs[rep][0]
        guid_pts = approx_guidance_sample(
            provider, schedule, reward, alpha, 1.0, n_samples, derive_sweep_seed(seed, 4, rep)
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
    "reps": 10,
    "data_noise": 0.1,
    **_smc_defaults(),
    **_TRAIN_DEFAULTS,
}


# ----------------------------------------------------------------------
# tempering ablation
# ----------------------------------------------------------------------


def run_ablate_tempering(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule, prior, reward, provider = _exact_mixture()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)
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
            runs = pooled_runs(
                _smc_config(cfg, particles=particles, **mode_kw), provider, schedule, reward,
                [derive_sweep_seed(seed, mode_index, particles, s) for s in range(seeds)], n_samples,
            )
            emds, min_ess = [], []
            for s, (pts, traces) in enumerate(runs):
                ref = oracle.sample(n_samples, derive_sweep_seed(seed, 9, particles, s))
                emds.append(emd_capped(pts, ref, seed=s))
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
    (outdir / "ablation.csv").write_text(csv_text(
        ["mode", "particles", "emd_mean", "emd_std", "min_ess_mean"],
        ([r["mode"], r["particles"], *(f"{r[k]:.6g}" for k in ("emd_mean", "emd_std", "min_ess_mean"))] for r in rows),
    ))
    return {"rows": rows}


_ABLATE_DEFAULTS = {
    "seed": 0,
    "samples": 320,
    "seeds": 8,
    "particle_counts": [4, 8, 16],
    **_smc_defaults("particles", "temper_mode", "gamma"),
}


# ----------------------------------------------------------------------
# estimator convergence rate (asymptotic exactness)
# ----------------------------------------------------------------------


def run_convergence(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule, prior, reward, provider = _exact_mixture()
    alpha = float(cfg["smc.alpha"])
    oracle = tilt_quadratic(prior, reward, alpha)

    truth = {
        "reward": expected_quadratic_reward(oracle, reward),
        "x1": float(oracle.weights @ oracle.means[:, 0]),
        "x1sq": float(
            oracle.weights @ (oracle.covariances[:, 0, 0] + oracle.means[:, 0] ** 2)
        ),
    }
    estimands = {"reward": reward.value, "x1": lambda x: x[:, 0], "x1sq": lambda x: x[:, 0] ** 2}
    counts = [int(v) for v in cfg["particle_counts"]]
    seeds = int(cfg["seeds"])
    rmse = {phi: [] for phi in truth}
    for n in counts:
        _, traces = run_das(
            _smc_config(cfg, particles=n), provider, schedule, reward,
            seeds=[derive_sweep_seed(derive_sweep_seed(seed, 31, n), n, s) for s in range(seeds)],
        )
        for phi, values in estimands.items():
            err = np.array([_weighted_mean(trace, values) for trace in traces]) - truth[phi]
            rmse[phi].append(float(np.sqrt(np.mean(err**2))))
    slopes = {}
    for phi in truth:
        slope, intercept = np.polyfit(np.log(counts), np.log(rmse[phi]), 1)
        slopes[phi] = float(slope)
        log(f"phi={phi}: RMSE {np.round(rmse[phi], 4).tolist()} slope {slope:.3f}")
    (outdir / "convergence.csv").write_text(csv_text(
        ["particles", *(f"rmse_{phi}" for phi in truth)],
        ([n, *(f"{rmse[phi][i]:.6g}" for phi in truth)] for i, n in enumerate(counts)),
    ))
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
    **_smc_defaults("particles"),
    "smc.gamma": 0.024,
}


# ----------------------------------------------------------------------
# tempering variance benefit
# ----------------------------------------------------------------------


def run_variance(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule, prior, reward, provider = _exact_mixture()
    oracle = tilt_quadratic(prior, reward, float(cfg["smc.alpha"]))
    seeds = int(cfg["seeds"])

    estimates = []
    for mode, base in (("geometric", derive_sweep_seed(seed, 41)), ("off", derive_sweep_seed(seed, 42))):
        _, traces = run_das(
            _smc_config(cfg, temper_mode=mode), provider, schedule, reward,
            seeds=[derive_sweep_seed(base, s) for s in range(seeds)],
        )
        estimates.append([_weighted_mean(trace, reward.value) for trace in traces])
    tempered, untempered = estimates
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
    runs_t = pooled_runs(
        _smc_config(cfg), provider, schedule, reward,
        [derive_sweep_seed(seed, 44, s) for s in range(eff_seeds)], n_samples,
    )
    runs_u = pooled_runs(
        _smc_config(cfg, temper_mode="off", particles=2 * base_n), provider, schedule, reward,
        [derive_sweep_seed(seed, 45, s) for s in range(eff_seeds)], n_samples,
    )
    wins = 0
    per_seed = []
    for s in range(eff_seeds):
        ref = oracle.sample(n_samples, derive_sweep_seed(seed, 43, s))
        e_t = emd_capped(runs_t[s][0], ref, seed=s)
        e_u = emd_capped(runs_u[s][0], ref, seed=s)
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
    (outdir / "estimates.csv").write_text(csv_text(
        ["seed", "tempered", "untempered"],
        ([i, f"{a:.8g}", f"{b:.8g}"] for i, (a, b) in enumerate(zip(tempered, untempered))),
    ))
    return metrics


_VARIANCE_DEFAULTS = {
    "seed": 0,
    "seeds": 200,
    "samples": 640,
    "efficiency_seeds": 20,
    **_smc_defaults(),
}


# ----------------------------------------------------------------------
# inference-compute scaling
# ----------------------------------------------------------------------


def run_scaling(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule, prior, reward, provider = _exact_mixture()
    outputs = int(cfg["outputs"])
    rows = []
    for particles in [int(v) for v in cfg["particle_counts"]]:
        [(das_pts, _)] = pooled_runs(
            _smc_config(cfg, particles=particles), provider, schedule, reward,
            [derive_sweep_seed(seed, 51, particles)], outputs,
        )
        [(smc_pts, _)] = pooled_runs(
            _smc_config(cfg, temper_mode="off", particles=particles), provider, schedule, reward,
            [derive_sweep_seed(seed, 52, particles)], outputs, guided_proposal=False,
        )
        bon_pts = best_of_n(provider, schedule, reward, particles, outputs, derive_sweep_seed(seed, 53, particles))
        row = {"particles": particles}
        for name, pts in [("das", das_pts), ("smc", smc_pts), ("best_of_n", bon_pts)]:
            vals = reward.value(pts)
            row[f"{name}_mean_reward"] = float(vals.mean())
            row[f"{name}_se"] = float(vals.std() / np.sqrt(len(vals)))
        rows.append(row)
        log(f"N={particles}: das {row['das_mean_reward']:.3f}, smc {row['smc_mean_reward']:.3f}, "
            f"best-of-n {row['best_of_n_mean_reward']:.3f}")
    (outdir / "scaling.csv").write_text(csv_text(list(rows[0]), (r.values() for r in rows)))
    return {"rows": rows}


_SCALING_DEFAULTS = {
    "seed": 0,
    "outputs": 128,
    "particle_counts": [1, 2, 4, 8, 16, 32, 64],
    **_smc_defaults("particles"),
}


# ----------------------------------------------------------------------
# online black-box optimization
# ----------------------------------------------------------------------


def run_online(cfg, outdir, log):
    seed = int(cfg["seed"])
    schedule, prior, black_box, provider = _exact_mixture()
    alpha = float(cfg["smc.alpha"])
    oracle_mean = expected_quadratic_reward(tilt_quadratic(prior, black_box, alpha), black_box)
    prior_mean = expected_quadratic_reward(prior, black_box)

    out = {"oracle_mean_reward": oracle_mean, "prior_mean_reward": prior_mean, "modes": {}}
    for mode in ("ucb", "bootstrap"):
        histories = []
        for s in range(int(cfg["seeds"])):
            ocfg = build_config(
                OnlineConfig, cfg,
                surrogate=build_config(SurrogateConfig, cfg, omit=("seed",), mode=mode),
                smc=_smc_config(cfg),
                seed=derive_sweep_seed(seed, 61, s) if mode == "ucb" else derive_sweep_seed(seed, 62, s),
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
    **library_defaults(OnlineConfig, omit=("seed",)),
    **library_defaults(SurrogateConfig, omit=("mode", "seed")),
    "seeds": 10,
    **_smc_defaults(),
}


# ----------------------------------------------------------------------
# score-net training
# ----------------------------------------------------------------------


def run_train_score(cfg, outdir, log):
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    net, losses = _trained_net(cfg, _prior_draws(cfg, prior), schedule, outdir, log)
    losses_csv = csv_text(["epoch", "loss"], ([i, f"{v:.8g}"] for i, v in enumerate(losses, 1)))
    (outdir / "loss_curve.csv").write_text(losses_csv)

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
    draws = ancestral_sample(prov_net, schedule, 1000, derive_sweep_seed(int(cfg["seed"]), 1))
    write_scatter(
        outdir / "net_samples.svg",
        [("net", draws), ("prior", prior.sample(1000, 2))],
        title="trained sampler vs prior",
    )
    return {"loss_first": losses[0], "loss_final": losses[-1], "median_score_rel_error": errors}


_TRAIN_SCORE_DEFAULTS = {"seed": 0, **_TRAIN_DEFAULTS}


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
            0.7,
        ),
        SuiteSpec(
            "fig1-bottom",
            "2D mixture, reward -x^2 - (y-1)^2/10: sampler comparison vs exact tilted target",
            _FIG1_DEFAULTS,
            run_fig1_bottom,
            0.8,
        ),
        SuiteSpec(
            "swiss-roll",
            "3D swiss roll with trained denoiser: tempered SMC vs approximate guidance",
            _SWISS_DEFAULTS,
            run_swiss_roll,
            0.6,
        ),
        SuiteSpec(
            "ablate-tempering",
            "tempering schemes x particle counts: EMD and ESS behaviour",
            _ABLATE_DEFAULTS,
            run_ablate_tempering,
            0.2,
        ),
        SuiteSpec(
            "convergence",
            "estimator RMSE vs particle count: asymptotic-exactness rate study",
            _CONVERGENCE_DEFAULTS,
            run_convergence,
            0.1,
        ),
        SuiteSpec(
            "variance",
            "seed-variance of estimates with and without tempering, plus particle efficiency",
            _VARIANCE_DEFAULTS,
            run_variance,
            0.1,
        ),
        SuiteSpec(
            "scaling",
            "mean reward vs inference compute for tempered SMC, plain SMC and best-of-N",
            _SCALING_DEFAULTS,
            run_scaling,
            0.1,
        ),
        SuiteSpec(
            "online",
            "online black-box optimization with UCB / bootstrap surrogates",
            _ONLINE_DEFAULTS,
            run_online,
            0.2,
        ),
        SuiteSpec(
            "train-score",
            "train the toy denoiser and report score accuracy artifacts",
            _TRAIN_SCORE_DEFAULTS,
            run_train_score,
            0.5,
        ),
    ]
}
