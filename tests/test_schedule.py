import numpy as np
import pytest

from das import NoiseSchedule
from das.errors import InputError


def test_default_matches_standard_recipe(schedule):
    assert schedule.steps == 100
    assert schedule.beta(1) == pytest.approx(1e-4)
    assert schedule.beta(100) == pytest.approx(0.02)


def test_alpha_bar_is_cumprod(schedule):
    assert schedule.alpha_bar(0) == 1.0
    prod = 1.0
    for t in range(1, schedule.steps + 1):
        prod *= 1.0 - schedule.beta(t)
        assert abs(schedule.alpha_bar(t) - prod) < 1e-12
    assert np.all(np.diff(schedule.alpha_bars) < 0)


def test_sigma_is_posterior_std(schedule):
    for t in (1, 2, 37, 100):
        bt = schedule.beta(t)
        expect = bt * (1 - schedule.alpha_bar(t - 1)) / (1 - schedule.alpha_bar(t))
        assert schedule.sigma(t) ** 2 == pytest.approx(expect, abs=1e-15)
    # final denoising step is noiseless by construction
    assert schedule.sigma(1) == 0.0
    assert np.all(schedule.sigmas[1:] > 0)


def test_bad_betas_rejected():
    with pytest.raises(InputError):
        NoiseSchedule(betas=np.array([0.1, 1.2]))
    with pytest.raises(InputError):
        NoiseSchedule(betas=np.array([-0.1, 0.2]))
    with pytest.raises(InputError):
        NoiseSchedule.linear(steps=0)


def test_time_index_bounds(schedule):
    with pytest.raises(InputError):
        schedule.beta(0)
    with pytest.raises(InputError):
        schedule.sigma(schedule.steps + 1)
    with pytest.raises(InputError):
        schedule.alpha_bar(-1)
