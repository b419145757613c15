"""The sampler against an exact oracle.  Over a Gaussian prior the sampler's
own ancestral chain p_theta is linear-Gaussian, so its law and
Z_theta = E_{p_theta}[exp(r/alpha)] have closed forms
(:func:`das.gmm.ancestral_law`).  With a fixed temper schedule that ends at
lambda_0 = 1, the SMC estimate Z_hat is unbiased for Z_theta under every
resampling scheme, guided or not.

The sweeps are seeded from ``derive_sweep_seed(SEED_BASE, s)``; the base was
fixed before the first run of these tests.
"""

import numpy as np
import pytest

from das import Gmm, GmmScoreProvider, QuadraticReward, SmcConfig, ancestral_sample, run_das
from das.errors import InputError
from das.gmm import ancestral_law
from das.rewards import fig1_bottom_reward, fig1_top_reward
from das.smc import RESAMPLING_SCHEMES, derive_sweep_seed

from helpers import z_hat_error

SEED_BASE = 2022
SWEEPS = 400

# (prior, reward, alpha): a correlated 2D Gaussian under the fig1-bottom
# reward, and an anisotropic 3D Gaussian under a reward with cross terms
CASES = {
    "d2": (
        Gmm(np.ones(1), np.array([[0.5, -0.3]]), np.array([[[0.6, 0.2], [0.2, 1.4]]])),
        fig1_bottom_reward(),
        0.5,
    ),
    "d3": (
        Gmm(
            np.ones(1),
            np.array([[0.4, -0.2, 0.7]]),
            np.array([[[1.0, 0.3, -0.2], [0.3, 0.5, 0.1], [-0.2, 0.1, 1.6]]]),
        ),
        QuadraticReward(
            np.array([[0.5, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.4]]), np.array([0.3, -0.2, 0.1]), 0.2
        ),
        0.5,
    ),
}


# float.hex of the law's mean, its covariance (row-major) and log Z_theta,
# recorded from the recursion that built one marginal per step
LAW_BITS = {
    "d2": (
        ["0x1.8dfafda90c2f9p-2", "-0x1.87e8db26b7c35p-3"],
        ["0x1.33c72d34441b8p-1", "0x1.5e15552a34e63p-3", "0x1.5e15552a34e63p-3", "0x1.48ee412f3c80cp+0"],
        "-0x1.1e716b691e604p+0",
    ),
    "d3": (
        ["0x1.399fabc6f2ee1p-2", "-0x1.b5bce2bf6518bp-3", "0x1.8fc1decb36242p-2"],
        ["0x1.e8e93f24a5546p-1", "0x1.212ab93d5e020p-2", "-0x1.412f5cbae5f87p-3",
         "0x1.212ab93d5e020p-2", "0x1.f9e70326954b4p-2", "0x1.7d55b65051d7cp-4",
         "-0x1.412f5cbae5f87p-3", "0x1.7d55b65051d7cp-4", "0x1.6c81144844d3dp+0"],
        "-0x1.5c3831f9ace8ep-1",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ancestral_law_bits_are_pinned(case, schedule):
    """The law and log Z_theta of each case, bit for bit as recorded."""
    prior, reward, alpha = CASES[case]
    law, log_z = ancestral_law(prior, schedule, reward, alpha)
    means, covariance, want_log_z = LAW_BITS[case]
    assert [v.hex() for v in law.means[0]] == means
    assert [v.hex() for v in law.covariances[0].ravel()] == covariance
    assert log_z.hex() == want_log_z
    assert law.weights.tolist() == [1.0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_ancestral_law_matches_ancestral_draws(case, schedule):
    """The recursion's mean and covariance are those of the chain's draws."""
    prior, reward, alpha = CASES[case]
    law, _ = ancestral_law(prior, schedule, reward, alpha)
    n = 20_000
    draws = ancestral_sample(GmmScoreProvider(prior, schedule), schedule, n, seed=SEED_BASE)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - law.means[0]) < 4.0 * se)
    cov = law.covariances[0]
    # sd of a sample covariance entry: sqrt((S_ij^2 + S_ii S_jj) / n)
    cov_se = np.sqrt((cov**2 + np.outer(np.diag(cov), np.diag(cov))) / n)
    assert np.all(np.abs(np.cov(draws.T) - cov) < 4.0 * cov_se)


def test_ancestral_law_rejects_a_mixture(schedule, prior_2d):
    with pytest.raises(InputError):
        ancestral_law(prior_2d, schedule, fig1_top_reward(), 1.0)


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "unguided"])
@pytest.mark.parametrize("mode", ["geometric", "off"])
@pytest.mark.parametrize("scheme", RESAMPLING_SCHEMES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_z_hat_is_unbiased_for_the_exact_z(case, scheme, mode, guided, schedule):
    """Mean Z_hat over 400 sweeps of 16 particles lies within 4 standard
    errors of Z_theta."""
    prior, reward, alpha = CASES[case]
    _, log_z = ancestral_law(prior, schedule, reward, alpha)
    cfg = SmcConfig(particles=16, alpha=alpha, temper_mode=mode, gamma=0.024, resampling=scheme)
    seeds = [derive_sweep_seed(SEED_BASE, s) for s in range(SWEEPS)]
    _, traces = run_das(cfg, GmmScoreProvider(prior, schedule), schedule, reward, guided, seeds=seeds)
    bias, _, _ = z_hat_error(np.exp([trace.log_z() for trace in traces]), np.exp(log_z))
    assert abs(bias) < 4.0, bias
