"""The weights layer: ESS, the temperature bisection, resampling and log Z_hat.

``tests/data/weights_golden.npz`` holds inputs and the outputs the code gave
for them before the row kernel replaced the batched one on single rows; the
tests here assert that every output is still the same to the bit.  Its keys:

- ``ess/<N>/batch``: an ``(S, N)`` batch of log-weight rows (Gaussian rows at
  several scales, one-hot, partly -inf, a NaN entry, a +inf entry), with
  ``rows`` (ess of each 1-D row), ``single`` (ess of each ``(1, N)`` slice)
  and ``batched`` (ess of the whole batch);
- ``sfd/<k>/lw``, ``rv``, ``args`` (ess_target, lambda_t, alpha) and ``delta``:
  ``solve_for_delta`` cases, taken from adaptive runs (most of them bisect)
  and from random rows, with the clamped endpoints;
- ``ssp/<k>/w``, ``seed``, ``counts`` and ``next``: ``_ssp_counts`` on random,
  snapped-uniform and partly zero weights, and the generator's next
  ``random()`` after the call;
- ``resample/<scheme>/<k>/lw``, ``seed``, ``anc`` and ``next``: ``resample``;
- ``engine/<case>/log_z`` and ``ess``: the log normalizer increments and ESS
  series of the guided engine runs in ``ENGINE_CASES``, recorded from the
  engine whose proposal shift is the gradient at (x_t, t);
- ``openblas_core``: the OpenBLAS core the engine entries were recorded on.
"""

from pathlib import Path

import numpy as np
import pytest

from das import GmmScoreProvider, SmcConfig, pooled_das, run_das
from das import smc
from das.gmm import canonical_prior_2d
from das.rewards import fig1_bottom_reward, fig1_top_reward
from das.schedule import NoiseSchedule
from das.smc import _ssp_counts, ess, resample, solve_for_delta

GOLDEN = Path(__file__).parent / "data" / "weights_golden.npz"

# name -> (reward, SmcConfig keywords, sweeps or None for one lone run)
ENGINE_CASES = {
    "adaptive-ssp": ("bottom", dict(particles=64, alpha=0.1, temper_mode="adaptive", resampling="ssp", seed=131), None),
    "adaptive-systematic": (
        "bottom", dict(particles=64, alpha=0.1, temper_mode="adaptive", resampling="systematic", seed=132), None,
    ),
    "adaptive-multinomial-pooled": (
        "bottom", dict(particles=32, alpha=0.1, temper_mode="adaptive", resampling="multinomial", seed=133), 3,
    ),
    "geometric-ssp-pooled": ("top", dict(particles=16, gamma=0.024, resampling="ssp", seed=134), 4),
}


def engine_traces(name: str):
    """The traces of the engine run ``ENGINE_CASES[name]``."""
    reward, kwargs, sweeps = ENGINE_CASES[name]
    schedule = NoiseSchedule.linear()
    provider = GmmScoreProvider(canonical_prior_2d(), schedule)
    reward = fig1_bottom_reward() if reward == "bottom" else fig1_top_reward()
    if sweeps is None:
        return [run_das(SmcConfig(**kwargs), provider, schedule, reward)[1]]
    return pooled_das(SmcConfig(**kwargs), provider, schedule, reward, sweeps)[1]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


def _cases(golden, prefix: str) -> list[str]:
    return sorted({key.rsplit("/", 1)[0] for key in golden if key.startswith(prefix)})


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ess_matches_the_golden_file(golden):
    cases = _cases(golden, "ess/")
    assert len(cases) == 7
    for case in cases:
        batch = golden[f"{case}/batch"]
        rows = [ess(row) for row in batch]
        assert all(isinstance(value, float) for value in rows)
        assert _bits(rows) == _bits(golden[f"{case}/rows"]), case
        single = [ess(batch[k:k + 1]) for k in range(batch.shape[0])]
        assert all(value.shape == (1,) for value in single)
        assert _bits(single) == _bits(golden[f"{case}/single"].reshape(-1, 1)), case
        assert _bits(ess(batch)) == _bits(golden[f"{case}/batched"]), case


def test_solve_for_delta_matches_the_golden_file(golden):
    cases = _cases(golden, "sfd/")
    assert len(cases) >= 40
    for case in cases:
        target, lam, alpha = golden[f"{case}/args"].tolist()
        delta = solve_for_delta(golden[f"{case}/lw"], golden[f"{case}/rv"], target, lam, alpha)
        assert _bits(delta) == _bits(golden[f"{case}/delta"]), case


def test_ssp_counts_match_the_golden_file(golden):
    cases = _cases(golden, "ssp/")
    assert len(cases) >= 30
    for case in cases:
        rng = np.random.default_rng(int(golden[f"{case}/seed"]))
        counts = _ssp_counts(golden[f"{case}/w"], rng)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, golden[f"{case}/counts"], err_msg=case)
        assert _bits(rng.random()) == _bits(golden[f"{case}/next"]), case


def test_resample_matches_the_golden_file(golden):
    cases = _cases(golden, "resample/")
    assert len(cases) >= 30
    for case in cases:
        scheme = case.split("/")[1]
        rng = np.random.default_rng(int(golden[f"{case}/seed"]))
        anc = resample(golden[f"{case}/lw"], scheme, rng)
        np.testing.assert_array_equal(anc, golden[f"{case}/anc"], err_msg=case)
        assert _bits(rng.random()) == _bits(golden[f"{case}/next"]), case


@pytest.mark.parametrize("name", ENGINE_CASES)
def test_engine_log_z_and_ess_match_the_golden_file(golden, name, blas_core_note):
    traces = engine_traces(name)
    note = blas_core_note(str(golden["openblas_core"]))
    assert _bits([t.log_z_increments() for t in traces]) == _bits(golden[f"engine/{name}/log_z"]), note
    assert _bits([t.ess_series() for t in traces]) == _bits(golden[f"engine/{name}/ess"]), note


def test_adaptive_run_calls_the_weights_layer_through_the_module(monkeypatch):
    """The engine and the bisection look ``ess``, ``resample`` and
    ``solve_for_delta`` up in ``das.smc`` at call time, which is what lets
    the benchmark's traced run time them: an adaptive lone run makes one
    solve per step, at least one ESS per step, and one resample per
    resampling step plus the terminal pass."""
    calls = {name: 0 for name in ("ess", "resample", "solve_for_delta")}
    for name in calls:
        inner = getattr(smc, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(smc, name, counted)
    [trace] = engine_traces("adaptive-ssp")
    steps = NoiseSchedule.linear().steps
    resampled = trace.resample_count()
    assert 0 < resampled < steps
    assert calls["solve_for_delta"] == steps
    assert calls["ess"] >= steps
    assert calls["resample"] == resampled + 1
