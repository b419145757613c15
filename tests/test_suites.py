"""Every suite at a tiny config, run through the CLI, against outputs
recorded in ``tests/data/suites_golden.json``: ``metrics.json`` without its
provenance and runtime, and the SHA-256 of every other CSV, JSON and SVG
artifact.  The golden file was recorded from the suites as they were when each study
still ran its reps and seeds one engine call at a time, so it pins that
batching the sweeps changed no output byte.

The same tiny configs count engine calls: a study makes one per sampler
configuration, however many reps or seeds it pools.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from das import smc
from das.cli import main
from das.config import merge_config, render_config
from das.suites import SUITES, _f_test_p_value

GOLDEN = Path(__file__).parent / "data" / "suites_golden.json"

TINY = {
    "fig1-top": {"provider": "analytic", "reps": 3, "samples": 64},
    "fig1-bottom": {"provider": "analytic", "reps": 2, "samples": 64},
    "swiss-roll": {"reps": 2, "samples": 64, "train.samples": 512, "train.epochs": 5},
    "ablate-tempering": {"samples": 32, "seeds": 2, "particle_counts": [4, 8]},
    "convergence": {"particle_counts": [4, 8], "seeds": 10},
    "variance": {"seeds": 10, "samples": 64, "efficiency_seeds": 3},
    "scaling": {"outputs": 16, "particle_counts": [1, 4]},
    "online": {"seeds": 1, "rounds": 2, "budget": 128},
    "train-score": {"train.samples": 512, "train.epochs": 5},
}


def suite_outputs(name: str, overrides: dict, root: Path) -> dict:
    """Run ``das run <name>`` with ``overrides`` and digest what it wrote."""
    root.mkdir(parents=True)
    cfg = root / "tiny.cfg"
    cfg.write_text(render_config(overrides))
    out = root / "out"
    assert main(["run", name, "--config", str(cfg), "--out", str(out)]) == 0
    (run,) = out.iterdir()
    metrics = json.loads((run / "metrics.json").read_text())
    del metrics["provenance"], metrics["runtime_seconds"]
    artifacts = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run.iterdir())
        if p.suffix in (".csv", ".json", ".svg") and p.name != "metrics.json"
    }
    return {"config": overrides, "metrics": metrics, "artifacts": artifacts}


@pytest.mark.parametrize("name", sorted(TINY))
def test_suite_outputs_match_the_golden_file(name, tmp_path, capsys, blas_core_note):
    golden = json.loads(GOLDEN.read_text())[name]
    assert golden["config"] == TINY[name]
    got = suite_outputs(name, TINY[name], tmp_path / name)
    note = blas_core_note(golden.get("openblas_core"))
    assert got["metrics"] == golden["metrics"], note
    assert got["artifacts"] == golden["artifacts"], note


# sampler configurations: das and untempered SMC (fig1); das (swiss-roll);
# 4 modes x 2 particle counts (ablate); 2 particle counts (convergence);
# tempered and untempered estimates plus the two efficiency samplers
# (variance); das and plain SMC at 2 particle counts (scaling); one
# sampled round per seed in each of the 2 surrogate modes (online)
ENGINE_CALLS = {
    "fig1-top": 2,
    "fig1-bottom": 2,
    "swiss-roll": 1,
    "ablate-tempering": 8,
    "convergence": 2,
    "variance": 4,
    "scaling": 4,
    "online": 2,
}


@pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
def test_each_sampler_configuration_is_one_engine_call(name, tmp_path, monkeypatch):
    calls = []
    run_sweeps = smc._run_sweeps

    def counting(*args):
        calls.append(len(args[-1]))
        return run_sweeps(*args)

    monkeypatch.setattr(smc, "_run_sweeps", counting)
    spec = SUITES[name]
    spec.runner(merge_config(spec.defaults, TINY[name]), tmp_path, lambda msg: None)
    assert len(calls) == ENGINE_CALLS[name], calls


class ReadRecorder(dict):
    """A config mapping that records the keys read through ``[]`` or ``get``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


NET = {"provider": "net", "train.samples": 512, "train.epochs": 5}
READ_CHECK = {**TINY, "fig1-top": {**TINY["fig1-top"], **NET}, "fig1-bottom": {**TINY["fig1-bottom"], **NET}}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_default_key_is_read(name, tmp_path):
    """A key that no run reads is an option nobody can set."""
    spec = SUITES[name]
    cfg = ReadRecorder(merge_config(spec.defaults, READ_CHECK[name]))
    spec.runner(cfg, tmp_path, lambda msg: None)
    assert sorted(set(spec.defaults) - cfg.read) == []


def test_variance_p_value_equals_scipy_stats():
    """The variance suite's F-test p-value is the float scipy.stats.f.sf
    gives, across F and the degrees of freedom, and at the edges."""
    from scipy import stats

    ratios = [*np.linspace(0.01, 10.0, 1000), 0.0, 1.0, np.inf, np.nan]
    for df in (0, 1, 2, 9, 19, 199, 1999):
        got = [_f_test_p_value(f, df) for f in ratios]
        np.testing.assert_array_equal(got, stats.f.sf(ratios, df, df))
