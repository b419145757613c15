"""Shared fixtures: schedules, priors, and session-cached trained nets."""

import numpy as np
import pytest

from das import Gmm, NoiseSchedule, TrainConfig, canonical_prior_2d, train_denoiser
from das.cli import openblas_build
from das.gmm import isotropic_gmm


@pytest.fixture(scope="session")
def blas_core_note():
    """``note(recorded)``: a failure message naming the OpenBLAS core a golden
    file was recorded on (None when the file does not say) and the core
    running now.  Golden bits of BLAS products hold only on one core."""
    running = openblas_build()["openblas_core"]

    def note(recorded):
        return f"golden recorded on OpenBLAS core {recorded or 'not stored'}, running on {running}"

    return note


@pytest.fixture(scope="session")
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="session")
def prior_2d():
    return canonical_prior_2d()


@pytest.fixture(scope="session")
def single_gaussian_2d():
    return isotropic_gmm(np.zeros((1, 2)), 1.0)


@pytest.fixture(scope="session")
def aniso_3d():
    """Unlike the fig1 prior: d=3, K=3, full anisotropic covariances, unequal weights."""
    return Gmm(
        weights=np.array([0.55, 0.3, 0.15]),
        means=np.array([[1.0, -0.5, 0.3], [-1.2, 0.8, -0.4], [0.2, 1.5, 1.1]]),
        covariances=np.array([
            [[1.0, 0.6, -0.2], [0.6, 0.8, 0.1], [-0.2, 0.1, 0.5]],
            [[0.4, -0.1, 0.05], [-0.1, 1.5, 0.7], [0.05, 0.7, 0.9]],
            [[2.0, 0.3, 0.8], [0.3, 0.3, -0.05], [0.8, -0.05, 1.2]],
        ]),
    )


@pytest.fixture(scope="session")
def trained_net_2d(schedule, prior_2d):
    """The toy pre-trained model: trained once per session at paper defaults."""
    data = prior_2d.sample(8192, 123)
    net, losses = train_denoiser(data, schedule, TrainConfig(seed=0))
    return net, losses
