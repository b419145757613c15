import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy

import das
from das.cli import main, openblas_build
from das.config import load_config, merge_config, parse_config_text, render_config
from das import suites
from das.errors import ConfigError
from das.gmm import canonical_prior_2d, expected_quadratic_reward, tilt_quadratic
from das.rewards import fig1_top_reward
from das.suites import SUITES
from das.svgplot import scatter_svg

FAST_FIG1 = 'provider = "analytic"\nreps = 1\nsamples = 64\n'


def test_registry_has_all_suites():
    expected = {
        "fig1-top",
        "fig1-bottom",
        "swiss-roll",
        "ablate-tempering",
        "convergence",
        "variance",
        "scaling",
        "online",
        "train-score",
    }
    assert expected <= set(SUITES)
    assert len(SUITES) >= 9
    assert len({s.name for s in SUITES.values()}) == len(SUITES)
    for spec in SUITES.values():
        assert spec.expected_minutes < 10


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out


def test_dry_run_echoes_config(capsys):
    assert main(["run", "variance", "--dry-run", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed = 7" in out and "smc.particles = 16" in out


# SHA-256 of the stdout of `das run <suite> --dry-run` at each suite's
# defaults: the resolved config, so a change that moves a default, adds or
# drops a key, or changes how a value renders shows here
DRY_RUN_DIGESTS = {
    "ablate-tempering": "e2d5fe501a0dded246eb4253617b561eeb6ea3c59ddbf9c5cbd127a7862410cb",
    "convergence": "1202f9ebce3966d8c432d8566c9db91d6fadb168dd40d162017d2fa8af213a1b",
    "fig1-bottom": "89ed6f7fa1197e30b8ff5b298dbda5b1092c7f1172a2726c341194b4094ee022",
    "fig1-top": "d7929e22c1d9f7567fab874b9b77187b296c49524b70995a85ad27cbca70e48c",
    "online": "5a6059d58f547ccadbdc05c7305e85a5f99ee4a8b79224821821dd4e90c3ac48",
    "scaling": "19e98c9de6e0b450cf45e593e0b3b9f9b32b7ec6980760cb671d1aa52099d80b",
    "swiss-roll": "3cbd7118be8467265ae024799b126f4a4efbc8c5a004cd4040a09e6dc099a123",
    "train-score": "7d60bc3f86b743772d4251e41b8782dd8a42413abded5b3816002a8591481f0e",
    "variance": "eaeef886618940694f9c13a124f92152265e79368fad295079cc8be96f5317fb",
}


def test_dry_run_digests_cover_every_suite():
    assert set(DRY_RUN_DIGESTS) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(DRY_RUN_DIGESTS))
def test_default_dry_run_matches_the_recorded_digest(suite, capsys):
    assert main(["run", suite, "--dry-run"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DRY_RUN_DIGESTS[suite]


def test_unknown_suite_exit_2(capsys):
    assert main(["run", "not-a-suite"]) == 2


def test_malformed_config_exit_2_no_artifacts(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    out = tmp_path / "art"
    code = main(["run", "fig1-top", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


WRONG_VALUES = [
    ("fig1-top", 'reps = "two"', "reps"),
    ("fig1-top", "reps = true", "reps"),
    ("fig1-top", "provider = 3", "provider"),
    ("fig1-top", 'smc.alpha = "big"', "smc.alpha"),
    ("convergence", "particle_counts = 4", "particle_counts"),
    ("convergence", "particle_counts = [4, 8.5]", "particle_counts"),
    ("ablate-tempering", "seed = -3", "seed"),
    ("train-score", "train.seed = -1", "train.seed"),
    ("fig1-top", 'provider = "mlp"', "provider"),
    ("fig1-bottom", 'untempered_variant = "guidde"', "untempered_variant"),
    ("variance", 'smc.resampling = "stratified"', "smc.resampling"),
    ("variance", 'smc.temper_mode = "linear"', "smc.temper_mode"),
    ("variance", "seeds = 1", "seeds"),
    ("fig1-top", "reps = 0", "reps"),
    ("fig1-top", "samples = 0", "samples"),
    ("convergence", "particle_counts = []", "particle_counts"),
    ("convergence", "particle_counts = [4, 0]", "particle_counts"),
    ("ablate-tempering", "smc.alpha = 0", "smc.alpha"),
    ("train-score", "train.samples = 100", "train.samples"),
    ("online", "rounds = 3\nbudget = 128", "rounds"),
    ("ablate-tempering", "smc.ess_frac = 0.05", "smc.ess_frac"),
    ("convergence", 'smc.temper_mode = "adaptive"\nsmc.ess_frac = 0.05', "smc.ess_frac"),
    ("scaling", 'smc.temper_mode = "adaptive"', "smc.temper_mode"),
    ("scaling", "smc.gamma = 0.005", "smc.gamma"),
    ("scaling", "smc.alpha = NaN", "smc.alpha"),
    ("variance", "smc.gamma = Infinity", "smc.gamma"),
    ("online", "noise_std = -1.0", "noise_std"),
    ("online", "beta = -2.0", "beta"),
    ("train-score", "train.learning_rate = NaN", "train.learning_rate"),
    ("online", "ridge = NaN", "ridge"),
    ("online", "budget = 16", "budget"),
]


@pytest.mark.parametrize("suite, line, key", WRONG_VALUES)
def test_wrong_value_kind_exit_2_no_artifacts(suite, line, key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "art"
    assert main(["run", suite, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_online_limit_error_lists_only_the_keys_it_builds_from(tmp_path, capsys):
    """The online runner derives the online and surrogate seeds, so the
    suite key ``seed`` reaches neither config and the error does not name it."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rounds = 3\nbudget = 128\n")
    out = tmp_path / "art"
    assert main(["run", "online", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "budget must divide evenly over rounds" in err
    assert "rounds = 3" in err and "budget = 128" in err
    assert "seed" not in err
    assert not out.exists()


def test_config_file_of_another_suite_exit_2_no_artifacts(tmp_path, capsys):
    cfg = tmp_path / "resolved.cfg"
    cfg.write_text('suite = "fig1-top"\n' + FAST_FIG1)
    out = tmp_path / "art"
    assert main(["run", "fig1-bottom", "--config", str(cfg), "--out", str(out), "--dry-run"]) == 2
    assert main(["run", "fig1-bottom", "--config", str(cfg), "--out", str(out)]) == 2
    assert "suite" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "fig1-top", "--config", str(cfg), "--dry-run"]) == 0


def test_negative_seed_flag_exit_2_no_artifacts(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", "ablate-tempering", "--seed", "-3", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_nan_alpha_flag_exit_2_no_artifacts(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(["run", "scaling", "--alpha", "nan", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: alpha must be a finite number > 0, got nan (smc.alpha = NaN, smc.temper_mode = \"geometric\", "
        "smc.gamma = 0.008, smc.resampling = \"ssp\", smc.ess_frac = 0.5, particles = 1)\n"
    )
    assert not out.exists()


def test_dropped_key_is_unknown(tmp_path, capsys):
    """ablate-tempering sets particles, temper mode and gamma per row, so
    those keys are not in its config."""
    out = tmp_path / "art"
    assert main(["run", "ablate-tempering", "--particles", "8", "--out", str(out)]) == 2
    assert "smc.particles" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, key", [
    ("fig1-top", "sweeps"), ("swiss-roll", "sweeps"), ("fig1-bottom", "schedule.steps"),
    ("fig1-top", "schedule.beta_start"), ("fig1-top", "schedule.beta_end"),
    ("fig1-top", "guidance_scale"), ("fig1-bottom", "guidance_scale"), ("swiss-roll", "data_noise"),
])
def test_removed_key_is_unknown(suite, key, tmp_path, capsys):
    """fig1 and swiss-roll size their pools from ``samples``, fig1 runs the
    default noise schedule, the guidance baseline runs at full strength and
    the swiss roll's jitter is a constant, so these keys are not in their
    configs, and ``--dry-run`` does not print them."""
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 4\n")
    out = tmp_path / "art"
    assert main(["run", suite, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", suite, "--dry-run"]) == 0
    assert f"{key} =" not in capsys.readouterr().out


def test_unknown_keys_listed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zzz_bogus = 1\nqqq_secret = 2\n")
    code = main(["run", "fig1-top", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert code == 2
    err = capsys.readouterr().err
    assert "zzz_bogus" in err and "qqq_secret" in err


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_FIG1)
    out = tmp_path / "art"
    code = main(["run", "fig1-top", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    runs = list(out.glob("fig1-top-*"))
    assert len(runs) == 1
    produced = {p.name for p in runs[0].iterdir()}
    assert {"metrics.json", "samples.csv", "resolved.cfg", "trace_das.csv"} <= produced
    assert {f"panel_{p}.svg" for p in ("pretrained", "target-oracle", "guidance", "smc-no-temper", "das")} <= produced
    metrics = json.loads((runs[0] / "metrics.json").read_text())
    assert metrics["suite"] == "fig1-top"
    assert {r["method"] for r in metrics["methods"]} == {
        "pretrained",
        "target-oracle",
        "guidance",
        "smc-no-temper",
        "das",
    }
    # resolved config + seed reproduce the run
    resolved = (runs[0] / "resolved.cfg").read_text()
    assert "seed = 0" in resolved


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_FIG1)
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("DAS_OUT_DIR", str(env_dir))
    code = main(["run", "fig1-top", "--config", str(cfg), "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert len(list(env_dir.glob("fig1-top-*"))) == 1
    assert not (tmp_path / "ignored").exists()


def test_flag_overrides(tmp_path, capsys):
    assert main(["run", "variance", "--dry-run", "--particles", "4", "--alpha", "2.0", "--gamma", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "smc.particles = 4" in out and "smc.alpha = 2.0" in out and "smc.gamma = 0.02" in out


def test_suite_runtime_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # a valid config whose training diverges: the second Adam step overflows the loss
    cfg.write_text("train.learning_rate = 1e300\ntrain.samples = 256\ntrain.epochs = 2\n")
    code = main(["run", "train-score", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_train_score_subcommand(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("train.epochs = 30\ntrain.samples = 512\n")
    out = tmp_path / "art"
    assert main(["run", "train-score", "--config", str(cfg), "--out", str(out)]) == 0
    run = next(out.glob("train-score-*"))
    assert (run / "denoiser.json").exists()
    assert (run / "loss_curve.csv").read_text().startswith("epoch,loss")


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------


def test_parse_config_text_values():
    cfg = parse_config_text("# comment\na = 1\nb.c = 2.5\nname = \"x\"\nflag = true\nraw = hello\n")
    assert cfg == {"a": 1, "b.c": 2.5, "name": "x", "flag": True, "raw": "hello"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("no equals here")


def test_json_config_flattening(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"smc": {"particles": 8}, "seed": 3}))
    assert load_config(p) == {"smc.particles": 8, "seed": 3}


def test_merge_rejects_unknown():
    with pytest.raises(ConfigError):
        merge_config({"a": 1}, {"b": 2})


def test_merge_rejects_an_integer_too_large_for_a_float_key():
    with pytest.raises(ConfigError) as caught:
        merge_config({"smc.alpha": 1.0}, {"smc.alpha": 10**400})
    big = str(10**400)
    assert str(caught.value) == f"alpha must be a finite number > 0, got {big} (smc.alpha = {big}, temper_mode = geometric)"


def test_render_round_trips():
    cfg = {"a": 1, "b.c": "text", "d": True}
    assert parse_config_text(render_config(cfg)) == cfg


# ----------------------------------------------------------------------
# svg emission
# ----------------------------------------------------------------------


def test_scatter_svg_well_formed():
    rng = np.random.default_rng(0)
    doc = scatter_svg([("a", rng.normal(size=(50, 2))), ("b", rng.normal(size=(30, 2)))], title="t")
    assert doc.startswith("<svg") and doc.endswith("</svg>")
    assert doc.count("<circle") >= 60
    assert "a (n=50)" in doc and "b (n=30)" in doc


TINY_ABLATE = "samples = 16\nseeds = 1\nparticle_counts = [4]\n"


def test_integer_for_a_float_key_still_runs(tmp_path):
    """``smc.alpha = 2`` runs and computes the bits of ``smc.alpha = 2.0``:
    the suites use values as merged, so an integer is never cast first.
    ``metrics.json`` less provenance and runtime, and every artifact but the
    echoed config, are equal."""
    for suite, tiny in (("ablate-tempering", TINY_ABLATE), ("fig1-top", FAST_FIG1)):
        outputs = []
        for alpha in ("2", "2.0"):
            cfg = tmp_path / f"{suite}-{alpha}.cfg"
            cfg.write_text(tiny + f"smc.alpha = {alpha}\n")
            out = tmp_path / f"{suite}-{alpha}"
            assert main(["run", suite, "--config", str(cfg), "--out", str(out)]) == 0
            (run,) = out.iterdir()
            metrics = json.loads((run / "metrics.json").read_text())
            del metrics["provenance"], metrics["runtime_seconds"]
            artifacts = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in run.iterdir() if p.name not in ("metrics.json", "resolved.cfg")
            }
            outputs.append((metrics, artifacts))
        assert outputs[0] == outputs[1], suite


def test_online_alpha_flag_sets_the_tilt(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("seeds = 1\nrounds = 2\nbudget = 128\n")
    oracle = {}
    for alpha in ("1.0", "0.25"):
        out = tmp_path / alpha
        assert main(["run", "online", "--config", str(cfg), "--alpha", alpha, "--out", str(out)]) == 0
        oracle[alpha] = json.loads(next(out.glob("online-*/metrics.json")).read_text())["oracle_mean_reward"]
    reward = fig1_top_reward()
    assert oracle["0.25"] == expected_quadratic_reward(tilt_quadratic(canonical_prior_2d(), reward, 0.25), reward)
    assert oracle["0.25"] > oracle["1.0"]


def test_same_second_runs_get_their_own_directories(tmp_path, monkeypatch):
    class FrozenClock:
        @staticmethod
        def now():
            return datetime(2024, 1, 2, 3, 4, 5)

    monkeypatch.setattr("das.cli.datetime", FrozenClock)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_ABLATE)
    out = tmp_path / "art"
    taken = out / "ablate-tempering-20240102-030405"
    taken.mkdir(parents=True)
    (taken / "metrics.json").write_text("{}")
    for _ in range(2):
        assert main(["run", "ablate-tempering", "--config", str(cfg), "--out", str(out)]) == 0
    assert (taken / "metrics.json").read_text() == "{}"
    for suffix in ("-2", "-3"):
        metrics = json.loads((out / f"{taken.name}{suffix}" / "metrics.json").read_text())
        assert metrics["suite"] == "ablate-tempering"


def test_metrics_carry_provenance(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_ABLATE)
    assert main(["run", "ablate-tempering", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 0
    run = next((tmp_path / "art").glob("ablate-tempering-*"))
    prov = json.loads((run / "metrics.json").read_text())["provenance"]
    assert set(prov) == {
        "python", "numpy", "scipy", "das", "openblas_core", "openblas_config", "git_sha", "config_sha256",
    }
    assert prov["python"] == platform.python_version()
    assert prov["openblas_core"] is None or prov["openblas_core"] in (prov["openblas_config"] or "")
    assert prov["numpy"] == np.__version__ and prov["scipy"] == scipy.__version__
    assert prov["das"] == das.__version__
    assert prov["git_sha"] is None or len(prov["git_sha"]) == 40
    assert prov["config_sha256"] == hashlib.sha256((run / "resolved.cfg").read_bytes()).hexdigest()


def test_openblas_core_names_the_kernels_in_use():
    """The recorded core follows ``OPENBLAS_CORETYPE``, which picks the
    kernels a process runs and so the last bits of every BLAS product."""
    if openblas_build()["openblas_core"] is None:
        pytest.skip("numpy's bundled OpenBLAS does not report its core")
    src = str(Path(das.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from das.cli import openblas_build; print(openblas_build()['openblas_core'])"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "Haswell"


def test_all_names_every_public_name_once():
    """``das.__all__`` and the package's imports name the same public API, so
    a deleted export cannot linger in only one of the two lists."""
    public = {name for name, value in vars(das).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(das.__all__) == len(set(das.__all__))
    assert set(das.__all__) == public


@pytest.mark.parametrize("module", ["das.cli", "das.suites"])
def test_import_leaves_scipy_stats_unloaded(module):
    """Every das command imports das.cli, and the benchmark's swiss-roll
    set-up imports das.suites; scipy.stats would add about 21 MB resident
    to each."""
    src = str(Path(das.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ablate_tempering_does_not_depend_on_the_hash_seed(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_ABLATE)
    src = str(Path(das.__file__).resolve().parents[1])
    results = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        env.pop("DAS_OUT_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-m", "das.cli", "run", "ablate-tempering", "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(next(out.glob("ablate-tempering-*/metrics.json")).read_text())
        metrics.pop("runtime_seconds")
        results.append(metrics)
    assert results[0] == results[1]


def _count_trainings(monkeypatch) -> list:
    """Start with an empty denoiser cache and record every training."""
    monkeypatch.setattr(suites, "_TRAINED_NETS", {})
    trained = []
    train = suites.train_denoiser

    def counting_train(*args, **kwargs):
        trained.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(suites, "train_denoiser", counting_train)
    return trained


def _run_in_process(name: str, overrides: dict, outdir: Path):
    """A suite's metrics and ``denoiser.json`` from a run in this process."""
    spec = SUITES[name]
    outdir.mkdir()
    metrics = spec.runner(merge_config(spec.defaults, overrides), outdir, lambda msg: None)
    return metrics, (outdir / "denoiser.json").read_text()


def test_fig1_runs_in_one_process_train_the_denoiser_once(tmp_path, monkeypatch):
    """fig1-top and fig1-bottom ask for the same denoiser: the second run
    reuses it, still writes its checkpoint, and its metrics equal those of a
    run that trains afresh."""
    trained = _count_trainings(monkeypatch)
    overrides = {"provider": "net", "reps": 1, "samples": 64, "train.samples": 256, "train.epochs": 3}
    _, top_net = _run_in_process("fig1-top", overrides, tmp_path / "top")
    bottom, bottom_net = _run_in_process("fig1-bottom", overrides, tmp_path / "bottom")
    assert len(trained) == 1 and bottom_net == top_net
    suites._TRAINED_NETS.clear()
    assert _run_in_process("fig1-bottom", overrides, tmp_path / "fresh") == (bottom, bottom_net)
    assert len(trained) == 2


def test_swiss_roll_runs_in_one_process_train_the_denoiser_once(tmp_path, monkeypatch):
    """Swiss-roll trains through the same cache, keyed by its training data:
    a second run reuses the denoiser and writes the same checkpoint and
    metrics."""
    trained = _count_trainings(monkeypatch)
    overrides = {"reps": 1, "samples": 64, "train.samples": 256, "train.epochs": 3}
    first = _run_in_process("swiss-roll", overrides, tmp_path / "first")
    assert _run_in_process("swiss-roll", overrides, tmp_path / "second") == first
    assert len(trained) == 1
