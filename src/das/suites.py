"""Named experiment suites: each reproduces one toy figure, ablation or
property study, writing samples/metrics/trace artifacts into a directory.

Every suite declares its default flat config; the CLI merges file and flag
overrides (unknown keys and values of another kind are rejected) and passes
the resolved mapping to the runner, which reads its values as merged.  The
``smc.*``, ``train.*`` and online keys take their defaults from the library
configs' fields and reach them through ``config.build_config``.

A runner builds one :class:`Task`, the study's setting: its config, noise
schedule, reward, sampling backbone and, for the mixture studies, the prior
whose exact tilt is the oracle.  The task derives every seed from the
``seed`` key and makes the sampler calls: a study runs all reps or seeds of
one sampler configuration as one engine call (``smc.pooled_runs`` or
``smc.run_das(seeds=)``), then reduces and writes.  So runs are
reproducible bit for bit from the echoed config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import fdtrc

from .baselines import approx_guidance_sample, best_of_n
from .config import build_config, library_defaults
from .diffusion import GmmScoreProvider, ScoreProvider, ancestral_sample
from .gmm import Gmm, canonical_prior_2d, expected_quadratic_reward, tilt_quadratic
from .metrics import emd_capped, summary_stats
from .online import OnlineConfig, SurrogateConfig, run_online_loop
from .rewards import RewardModel, fig1_bottom_reward, fig1_top_reward, swiss_roll_reward
from .schedule import NoiseSchedule
from .scorenet import NetScoreProvider, TrainConfig, train_denoiser
from .smc import SmcConfig, derive_sweep_seed, pooled_runs, run_das
from .svgplot import write_scatter
from .swissroll import make_swiss_roll
from .tables import csv_text


@dataclass(frozen=True)
class Task:
    """One study's setting and every sampler call made in it.  ``prior`` is
    the mixture whose tilt by the reward at ``smc.alpha`` is the study's
    exact target; the swiss roll has none."""

    cfg: dict
    schedule: NoiseSchedule
    reward: RewardModel
    provider: ScoreProvider
    prior: Gmm | None = None

    @cached_property
    def oracle(self) -> Gmm:
        """The exact tilted target, built on first use: train-score has no
        ``smc.alpha`` key and scaling never needs the tilt."""
        return tilt_quadratic(self.prior, self.reward, self.cfg["smc.alpha"])

    def seed(self, *path: int) -> int:
        return derive_sweep_seed(self.cfg["seed"], *path)

    def smc(self, **fixed) -> SmcConfig:
        """The sampler config of the ``smc.*`` keys, ``fixed`` fields winning."""
        return build_config(SmcConfig, self.cfg, "smc.", **fixed)

    def pools(self, bases: list[int], samples: int, guided: bool = True, **fixed):
        """``samples`` draws and their traces at every base seed, in one
        engine call."""
        return pooled_runs(self.smc(**fixed), self.provider, self.schedule, self.reward, bases, samples, guided)

    def traces(self, seeds: list[int], **fixed):
        """The trace of one sweep per seed, in one engine call."""
        return run_das(self.smc(**fixed), self.provider, self.schedule, self.reward, seeds=seeds)[1]

    def guidance(self, n: int, seed: int) -> np.ndarray:
        """``n`` approximate-guidance draws at ``smc.alpha``."""
        return approx_guidance_sample(self.provider, self.schedule, self.reward, self.cfg["smc.alpha"], n, seed)


def _smc_defaults(*omit: str) -> dict:
    return library_defaults(SmcConfig, "smc.", omit=("seed", *omit))


_TRAIN_DEFAULTS = {"train.samples": 8192, **library_defaults(TrainConfig, "train.")}


def _weighted_mean(trace, values) -> float:
    """The self-normalised estimate of E[values(x)] from a sweep's weighted
    final ensemble."""
    final = trace.weighted_final
    return float(final.normalized_weights() @ values(final.positions))


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


def _mixture(cfg: dict, outdir: Path, log, reward=None) -> Task:
    """The 2-D mixture task: schedule, prior, reward (fig1-top's unless
    given) and the sampling backbone, which is the exact mixture scores or,
    when the suite's ``provider`` key is ``net``, the trained denoiser."""
    schedule = NoiseSchedule.linear()
    prior = canonical_prior_2d()
    if cfg.get("provider") == "net":
        provider = NetScoreProvider(_trained_net(cfg, _prior_draws(cfg, prior), schedule, outdir, log)[0], schedule)
    else:
        provider = GmmScoreProvider(prior, schedule)
    return Task(cfg, schedule, fig1_top_reward() if reward is None else reward, provider, prior)


def _emds(refs: list, methods: dict) -> list[dict]:
    """Per rep, the EMD from each method's draws of that rep to the rep's
    reference draws, subsampled with the rep index as seed."""
    return [{name: float(emd_capped(draws[rep], ref, seed=rep)) for name, draws in methods.items()}
            for rep, ref in enumerate(refs)]


# the scatter projections of a panel by its dimension: file-name suffix -> columns
_PROJECTIONS = {2: {"": [0, 1]}, 3: {"_xy": [0, 1], "_xz": [0, 2]}}


def _write_panels(outdir: Path, panels: dict, per_sweep: int, swept: tuple):
    """One scatter per panel and projection, ``panel_{name}.svg`` at d = 2
    and ``panel_{name}_xy.svg`` and ``panel_{name}_xz.svg`` at d = 3, and
    every panel's draws in ``samples.csv``, numbered by sweep and particle:
    the panels named in ``swept`` hold ``per_sweep`` draws per sampler
    sweep, each other panel counts as one sweep."""
    for name, pts in panels.items():
        for suffix, cols in _PROJECTIONS[pts.shape[1]].items():
            title = f"{name} ({suffix[1]}, {suffix[2]})" if suffix else name
            write_scatter(outdir / f"panel_{name}{suffix}.svg", [(name, pts[:, cols])], title=title)
    (outdir / "samples.csv").write_text(csv_text(
        ["method", "sweep", "particle", *(f"x{i}" for i in range(panels["das"].shape[1]))],
        ([name, *divmod(i, per_sweep if name in swept else len(pts)), *(f"{v:.8g}" for v in row)]
         for name, pts in panels.items() for i, row in enumerate(pts)),
    ))


# ----------------------------------------------------------------------
# fig1-style sampler comparison
# ----------------------------------------------------------------------


def _run_fig1(cfg: dict, outdir: Path, log, reward):
    task = _mixture(cfg, outdir, log, reward)
    seed, n, reps = cfg["seed"], cfg["samples"], cfg["reps"]
    das_runs = task.pools([task.seed(2, rep) for rep in range(reps)], n)
    untempered = task.pools([task.seed(3, rep) for rep in range(reps)], n, False, temper_mode="off")
    refs = [task.oracle.sample(n, task.seed(1, rep)) for rep in range(reps)]
    methods = {
        "das": [pts for pts, _ in das_runs],
        "smc-no-temper": [pts for pts, _ in untempered],
        "guidance": [task.guidance(n, task.seed(4, rep)) for rep in range(reps)],
    }
    emds = _emds(refs, methods)
    wins_guid = sum(e["das"] < 0.9 * e["guidance"] for e in emds)
    wins_smc = sum(e["das"] < 0.9 * e["smc-no-temper"] for e in emds)

    self_dist = emd_capped(task.oracle.sample(n, task.seed(6)), task.oracle.sample(n, task.seed(7)), seed=0)
    panels = {
        "pretrained": ancestral_sample(task.provider, task.schedule, n, task.seed(5)),
        "target-oracle": refs[0],
        **{name: methods[name][0] for name in ("guidance", "smc-no-temper", "das")},
    }
    records = []
    for name, pts in panels.items():
        st = summary_stats(pts, task.reward, task.oracle)
        records.append({
            "method": name,
            "emd": emd_capped(pts, refs[0], seed=seed),
            "emd_self": self_dist,
            "mean_reward": st.mean_reward,
            "reward_std": st.reward_std,
            "mode_counts": st.per_mode_counts,
            "n": len(pts),
            "seed": seed,
        })
    _write_panels(outdir, panels, cfg["smc.particles"], ("das", "smc-no-temper"))
    (outdir / "trace_das.csv").write_text(das_runs[0][1][0].to_csv())
    log(f"das EMD beats guidance by >=10% in {wins_guid}/{reps} reps, untempered SMC in {wins_smc}/{reps}")
    return {
        "methods": records,
        "per_rep_emd": [{"rep": rep, **e} for rep, e in enumerate(emds)],
        "reps": reps,
        "das_beats_guidance_by_10pct": wins_guid,
        "das_beats_untempered_by_10pct": wins_smc,
    }


_FIG1_DEFAULTS = {
    "seed": 0,
    "provider": "net",
    "samples": 640,
    "reps": 20,
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


# standard deviation of the jitter on the swiss roll's training and reference points
_SWISS_NOISE = 0.1


def run_swiss_roll(cfg, outdir, log):
    n, reps = cfg["samples"], cfg["reps"]
    schedule = NoiseSchedule.linear()
    data = make_swiss_roll(cfg["train.samples"], _SWISS_NOISE, derive_sweep_seed(cfg["seed"], 0))
    net = _trained_net(cfg, data, schedule, outdir, log)[0]
    task = Task(cfg, schedule, swiss_roll_reward(), NetScoreProvider(net, schedule))

    big = make_swiss_roll(200_000, _SWISS_NOISE, task.seed(1))
    refs = [_tilted_reference(big, task.reward, cfg["smc.alpha"], n, task.seed(2, rep)) for rep in range(reps)]
    methods = {
        "das": [pts for pts, _ in task.pools([task.seed(3, rep) for rep in range(reps)], n)],
        "guidance": [task.guidance(n, task.seed(4, rep)) for rep in range(reps)],
    }
    emds = _emds(refs, methods)
    wins = sum(e["das"] < e["guidance"] for e in emds)
    panels = {"das": methods["das"][0], "guidance": methods["guidance"][0], "target": refs[0]}
    _write_panels(outdir, panels, cfg["smc.particles"], ("das",))
    log(f"das EMD < guidance EMD in {wins}/{reps} seeds")
    return {"per_rep_emd": [{"rep": rep, **e} for rep, e in enumerate(emds)], "das_wins": wins, "reps": reps}


_SWISS_DEFAULTS = {
    "seed": 0,
    "samples": 640,
    "reps": 10,
    **_smc_defaults(),
    **_TRAIN_DEFAULTS,
}


# ----------------------------------------------------------------------
# tempering ablation
# ----------------------------------------------------------------------


def run_ablate_tempering(cfg, outdir, log):
    task = _mixture(cfg, outdir, log)
    n, seeds = cfg["samples"], cfg["seeds"]
    modes = [
        ("gamma-0.008", dict(temper_mode="geometric", gamma=0.008)),
        ("gamma-0.024", dict(temper_mode="geometric", gamma=0.024)),
        ("adaptive", dict(temper_mode="adaptive", gamma=0.008)),
        ("no-temper", dict(temper_mode="off", gamma=0.008)),
    ]
    rows = []
    for mode_index, (name, mode_kw) in enumerate(modes):
        for particles in cfg["particle_counts"]:
            bases = [task.seed(mode_index, particles, s) for s in range(seeds)]
            runs = task.pools(bases, n, particles=particles, **mode_kw)
            emds = [
                emd_capped(pts, task.oracle.sample(n, task.seed(9, particles, s)), seed=s)
                for s, (pts, _) in enumerate(runs)
            ]
            min_ess = [min(t.ess_series().min() for t in traces) for _, traces in runs]
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
    task = _mixture(cfg, outdir, log)
    oracle, reward = task.oracle, task.reward
    truth = {
        "reward": expected_quadratic_reward(oracle, reward),
        "x1": float(oracle.weights @ oracle.means[:, 0]),
        "x1sq": float(
            oracle.weights @ (oracle.covariances[:, 0, 0] + oracle.means[:, 0] ** 2)
        ),
    }
    estimands = {"reward": reward.value, "x1": lambda x: x[:, 0], "x1sq": lambda x: x[:, 0] ** 2}
    counts, seeds = cfg["particle_counts"], cfg["seeds"]
    rmse = {phi: [] for phi in truth}
    for n in counts:
        traces = task.traces([derive_sweep_seed(task.seed(31, n), n, s) for s in range(seeds)], particles=n)
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


def _f_test_p_value(f_ratio: float, df: int) -> float:
    """P(F > f_ratio) for F with (df, df) degrees of freedom: the function
    that ``scipy.stats.f.sf`` evaluates, without loading ``scipy.stats``."""
    return float(fdtrc(df, df, f_ratio))


def run_variance(cfg, outdir, log):
    task = _mixture(cfg, outdir, log)
    seeds = cfg["seeds"]
    estimates = []
    for mode, stream in (("geometric", 41), ("off", 42)):
        traces = task.traces([derive_sweep_seed(task.seed(stream), s) for s in range(seeds)], temper_mode=mode)
        estimates.append([_weighted_mean(trace, task.reward.value) for trace in traces])
    tempered, untempered = estimates
    var_t = float(np.var(tempered, ddof=1))
    var_u = float(np.var(untempered, ddof=1))
    f_ratio = var_u / var_t
    p_value = _f_test_p_value(f_ratio, seeds - 1)
    log(f"seed-variance tempered {var_t:.5f} vs untempered {var_u:.5f} (F={f_ratio:.2f}, p={p_value:.4f})")

    # particle-efficiency: EMD reached by untempered N=2*base vs tempered N=base
    n, base_n, eff_seeds = cfg["samples"], cfg["smc.particles"], cfg["efficiency_seeds"]
    runs_t = task.pools([task.seed(44, s) for s in range(eff_seeds)], n)
    runs_u = task.pools([task.seed(45, s) for s in range(eff_seeds)], n, temper_mode="off", particles=2 * base_n)
    emds = _emds(
        [task.oracle.sample(n, task.seed(43, s)) for s in range(eff_seeds)],
        {"tempered": [pts for pts, _ in runs_t], "untempered_2n": [pts for pts, _ in runs_u]},
    )
    wins = sum(e["tempered"] <= e["untempered_2n"] for e in emds)
    log(f"tempered N={base_n} reaches untempered N={2*base_n} EMD in {wins}/{eff_seeds} seeds")

    metrics = {
        "var_tempered": var_t,
        "var_untempered": var_u,
        "f_ratio": f_ratio,
        "p_value": p_value,
        "estimates_mean": {"tempered": float(np.mean(tempered)), "untempered": float(np.mean(untempered))},
        "efficiency_wins": wins,
        "efficiency_seeds": eff_seeds,
        "efficiency_per_seed": [{"seed": s, **e} for s, e in enumerate(emds)],
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
    task = _mixture(cfg, outdir, log)
    outputs = cfg["outputs"]
    rows = []
    for particles in cfg["particle_counts"]:
        [(das_pts, _)] = task.pools([task.seed(51, particles)], outputs, particles=particles)
        [(smc_pts, _)] = task.pools([task.seed(52, particles)], outputs, False, temper_mode="off", particles=particles)
        bon_pts = best_of_n(task.provider, task.schedule, task.reward, particles, outputs, task.seed(53, particles))
        row = {"particles": particles}
        for name, pts in [("das", das_pts), ("smc", smc_pts), ("best_of_n", bon_pts)]:
            vals = task.reward.value(pts)
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
    task = _mixture(cfg, outdir, log)
    oracle_mean = expected_quadratic_reward(task.oracle, task.reward)
    prior_mean = expected_quadratic_reward(task.prior, task.reward)

    out = {"oracle_mean_reward": oracle_mean, "prior_mean_reward": prior_mean, "modes": {}}
    for mode, stream in (("ucb", 61), ("bootstrap", 62)):
        histories = []
        for s in range(cfg["seeds"]):
            ocfg = build_config(
                OnlineConfig, cfg,
                surrogate=build_config(SurrogateConfig, cfg, omit=("seed",), mode=mode),
                smc=task.smc(),
                seed=task.seed(stream, s),
            )
            hist = run_online_loop(task.reward, task.provider, task.schedule, ocfg)
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
            "improved_seeds": improved,
            "seeds": cfg["seeds"],
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
    task = _mixture(cfg, outdir, log)
    net, losses = _trained_net(cfg, _prior_draws(cfg, task.prior), task.schedule, outdir, log)
    losses_csv = csv_text(["epoch", "loss"], ([i, f"{v:.8g}"] for i, v in enumerate(losses, 1)))
    (outdir / "loss_curve.csv").write_text(losses_csv)

    prov_net = NetScoreProvider(net, task.schedule)
    xs = np.linspace(-3, 3, 41)
    grid = np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)
    errors = {}
    for t in (10, 50, 90):
        sn, sa = prov_net.score(grid, t), task.provider.score(grid, t)
        rel = np.linalg.norm(sn - sa, axis=1) / np.maximum(np.linalg.norm(sa, axis=1), 1e-12)
        errors[str(t)] = float(np.median(rel))
        log(f"t={t}: median score rel error {errors[str(t)]:.4f}")
    draws = ancestral_sample(prov_net, task.schedule, 1000, task.seed(1))
    write_scatter(
        outdir / "net_samples.svg",
        [("net", draws), ("prior", task.prior.sample(1000, 2))],
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
