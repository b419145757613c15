import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import das
from das.cli import main
from das.config import load_config, merge_config, parse_config_text, render_config
from das.errors import ConfigError
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
    assert main(["run", "convergence", "--dry-run", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed = 7" in out and "smc.particles = 16" in out


def test_unknown_suite_exit_2(capsys):
    assert main(["run", "not-a-suite"]) == 2


def test_malformed_config_exit_2_no_artifacts(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    out = tmp_path / "art"
    code = main(["run", "fig1-top", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


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
    assert main(["run", "convergence", "--dry-run", "--particles", "4", "--alpha", "2.0", "--gamma", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "smc.particles = 4" in out and "smc.alpha = 2.0" in out and "smc.gamma = 0.02" in out


def test_suite_runtime_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("smc.gamma = 1e-9\n")  # temper ramp can never reach full tilt
    code = main(["run", "convergence", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_train_score_subcommand(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("train.epochs = 30\ntrain.samples = 512\n")
    out = tmp_path / "art"
    assert main(["train-score", "--config", str(cfg), "--out", str(out)]) == 0
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
