"""Tests of the sampler benchmark itself, at smoke size: the result format,
non-invasive tracing, failure accounting and seeding."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from das import smc  # noqa: E402
from spans import SMC_WRAPPED, Tracer, traced_smc  # noqa: E402
from workloads import SMOKE, SPECS, quality_problems, run_set, set_seed, set_up  # noqa: E402

WORKLOADS = sorted(SMOKE)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_cli(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_reports_every_metric_with_its_unit(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, last = proc.stdout.strip().splitlines()
    line = json.loads(last)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in line["metrics"].items()}
    for value in (v["value"] for v in line["metrics"].values()):
        assert isinstance(value, float) and math.isfinite(value)

    report = json.loads(report_line)
    assert all(m["n"] >= 1 for m in report["metrics"].values())
    prov = report["provenance"]
    for key in ("python", "numpy", "scipy", "git_sha", "nproc", "blas_threads", "load_avg_start"):
        assert key in prov
    assert prov["workload_seed"] == 3
    assert prov["blas_threads_pinned"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert "failed_frac" in report["metrics"]


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "fig1-pooled", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_draws_bit_identical(workload):
    state = set_up(SMOKE[workload], 7)
    plain = run_set(state, 0)
    tracer = Tracer()
    with traced_smc(tracer):
        traced = run_set(state, 0, tracer)
    assert all(getattr(smc, name).__module__ == "das.smc" for name in SMC_WRAPPED)
    assert not plain.failed and not traced.failed
    assert plain.draws.tobytes() == traced.draws.tobytes()
    assert plain.ancestors.tobytes() == traced.ancestors.tobytes()
    assert {"set", "sampler", "smc.run", "smc.ess", "metrics.emd", "rewards.value"} <= set(tracer.names)

    # Spans nest inside their parents, and self times add up to the root.
    dur, own = tracer.durations(), tracer.self_times()
    starts, ends = np.asarray(tracer.starts), np.asarray(tracer.ends)
    parents = np.asarray(tracer.parents)
    child = parents >= 0
    assert np.all(starts[child] >= starts[parents[child]])
    assert np.all(ends[child] <= ends[parents[child]])
    assert np.all(own >= 0)
    roots = np.flatnonzero(~child)
    assert [tracer.names[i] for i in roots] == ["set"]
    resolution = time.get_clock_info("perf_counter").resolution
    assert abs(own.sum() - dur[roots[0]]) <= max(resolution, 1e-12) * len(dur)


class _NanForOneParticle:
    """Reward that is NaN for the first particle of every batch."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, x):
        v = self.inner.value(x)
        v[0] = np.nan
        return v

    def gradient(self, x):
        return self.inner.gradient(x)


@pytest.mark.parametrize("scheme", ["ssp", "systematic", "multinomial"])
def test_a_nan_reward_makes_the_set_fail(scheme):
    state = set_up(replace(SMOKE["fig1-pooled"], schemes=(scheme,)), 0)
    state.reward = _NanForOneParticle(state.reward)
    result = run_set(state, 0)
    assert result.failed, f"{scheme}: a NaN reward went unnoticed"


class _Untilted:
    """Reward that is zero everywhere: the sampler then draws from the prior."""

    def value(self, x):
        return np.zeros(len(x))

    def gradient(self, x):
        return np.zeros_like(x)


def test_a_sampler_that_ignores_the_tilt_fails_the_quality_check():
    spec = replace(SPECS["bottom-adaptive"], quality_sets=3)
    state = set_up(spec, 0)
    good = [run_set(state, i) for i in range(spec.quality_sets)]
    assert not any(r.failed for r in good) and quality_problems(spec, good) == []

    # The oracle draws were made at set-up, from the tilted target.
    sampler_state = replace(state, reward=_Untilted())
    bad = [run_set(sampler_state, i) for i in range(spec.quality_sets)]
    assert not any(r.failed for r in bad)
    assert all(r.outlier for r in bad)
    assert quality_problems(spec, bad)


def test_set_seeds_and_digests_follow_the_workload_seed():
    spec = SMOKE["bottom-adaptive"]
    assert set_seed(11, 2) == int(np.random.SeedSequence([11, 2]).generate_state(1)[0])
    a, b, c = (run_set(set_up(spec, seed), 1) for seed in (11, 11, 12))
    assert a.digest == b.digest and a.emd == b.emd and a.errors == b.errors
    assert a.digest != c.digest
