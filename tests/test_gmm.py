
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from das import Gmm, diffuse, expected_quadratic_reward, isotropic_gmm, tilt_quadratic
from das.errors import DegenerateTargetError, InputError
from das.gmm import _sum_components
from das.rewards import QuadraticReward, fig1_top_reward


def random_gmm(rng, k=3, d=2):
    w = rng.dirichlet(np.ones(k))
    means = rng.normal(scale=2.0, size=(k, d))
    covs = []
    for _ in range(k):
        a = rng.normal(size=(d, d))
        covs.append(a @ a.T + 0.3 * np.eye(d))
    return Gmm(w, means, np.array(covs))


# ----------------------------------------------------------------------
# log density
# ----------------------------------------------------------------------


def test_standard_normal_at_mode():
    g = isotropic_gmm(np.zeros((1, 2)), 1.0)
    assert g.log_density(np.zeros((1, 2)))[0] == pytest.approx(-np.log(2 * np.pi), abs=1e-12)


def test_two_component_hand_value():
    # equal-weight standard normals at +-(1, 0), evaluated at the origin:
    # each component density is exp(-1/2) / (2 pi)
    g = isotropic_gmm(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1.0)
    expect = np.log(np.exp(-0.5) / (2 * np.pi))
    assert g.log_density(np.zeros((1, 2)))[0] == pytest.approx(expect, abs=1e-12)


def test_translation_equivariance():
    rng = np.random.default_rng(0)
    g = random_gmm(rng)
    shift = np.array([0.7, -2.2])
    shifted = Gmm(g.weights, g.means + shift, g.covariances)
    x = rng.normal(size=(20, 2))
    np.testing.assert_allclose(shifted.log_density(x + shift), g.log_density(x), atol=1e-12)


def test_dimension_mismatch_rejected():
    g = isotropic_gmm(np.zeros((1, 2)), 1.0)
    with pytest.raises(InputError):
        g.log_density(np.zeros((1, 3)))


def test_invalid_weights_rejected():
    with pytest.raises(InputError):
        Gmm(np.array([0.6, 0.6]), np.zeros((2, 2)), np.broadcast_to(np.eye(2), (2, 2, 2)).copy())


def test_asymmetric_covariance_rejected():
    cov = np.array([[[1.0, 0.5], [0.2, 1.0]]])
    with pytest.raises(InputError):
        Gmm(np.array([1.0]), np.zeros((1, 2)), cov)


def test_a_covariance_that_is_not_positive_definite_is_rejected():
    covs = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
    with pytest.raises(InputError, match="covariances must be positive-definite"):
        Gmm(np.full(3, 1 / 3), np.zeros((3, 2)), covs)


# ----------------------------------------------------------------------
# score and Hessian against finite differences
# ----------------------------------------------------------------------


def fd_score(g, x, h=1e-5):
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        e = np.zeros(x.shape[1])
        e[j] = h
        out[:, j] = (g.log_density(x + e) - g.log_density(x - e)) / (2 * h)
    return out


def test_single_normal_score():
    g = isotropic_gmm(np.zeros((1, 2)), 1.0)
    np.testing.assert_allclose(g.score(np.array([[1.0, 2.0]])), [[-1.0, -2.0]], atol=1e-14)


def test_symmetric_mixture_zero_score_at_center():
    g = isotropic_gmm(np.array([[1.5, 0.0], [-1.5, 0.0]]), 0.5)
    np.testing.assert_allclose(g.score(np.zeros((1, 2))), 0.0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_score_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    g = random_gmm(rng)
    x = rng.normal(scale=2.0, size=(30, 2))
    s = g.score(x)
    fd = fd_score(g, x)
    rel = np.abs(s - fd) / np.maximum(np.abs(fd), 1.0)
    assert rel.max() < 1e-5


def test_hessian_matches_finite_differences(aniso_3d):
    rng = np.random.default_rng(7)
    for g in (random_gmm(rng, k=4, d=3), aniso_3d):
        x = rng.normal(size=(10, 3))
        hess = g.hessian_planes(x)[1].transpose(2, 0, 1)
        scale = np.maximum(np.abs(hess).max(axis=(1, 2)), 1.0)[:, None, None]
        assert np.all(np.abs(hess - np.swapaxes(hess, 1, 2)) <= 1e-14 * scale)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            col = (g.score(x + e) - g.score(x - e)) / (2 * h)
            assert np.abs(hess[:, :, j] - col).max() < 1e-5


def test_component_sums_add_their_terms_one_after_another():
    """The component sum is t_0 + t_1 + ... + t_{K-1} in k order, bit for
    bit and signed zeros included, for K = 1 to 12 (one numpy reduction
    below 8, a Python loop from 8), with 1 to 5 rows and 1 to 3 leading
    planes.  The values mix magnitudes so that another grouping rounds
    differently."""
    rng = np.random.default_rng(41)
    values = np.array([1e16, -1e16, 1.0, -1.0, 0.5, 3.0, 0.0, -0.0, 1e-300])
    for k in range(1, 13):
        for n in range(1, 6):
            for planes in range(1, 4):
                terms = rng.choice(values, size=(planes, k, n)) * rng.choice([1.0, 1.0 + 2**-52], size=(planes, k, n))
                if n == 1:
                    terms[0] = -0.0
                want = terms[:, 0].copy()
                for j in range(1, k):
                    want += terms[:, j]
                assert _sum_components(terms).tobytes() == want.tobytes(), (k, n, planes)
                assert _sum_components(terms[0]).tobytes() == want[0].tobytes(), (k, n)


def test_log_density_matches_scipy_mixture(aniso_3d):
    x = np.random.default_rng(13).normal(scale=1.5, size=(40, 3))
    per_comp = [
        np.log(w) + multivariate_normal(mu, cov).logpdf(x)
        for w, mu, cov in zip(aniso_3d.weights, aniso_3d.means, aniso_3d.covariances)
    ]
    np.testing.assert_allclose(aniso_3d.log_density(x), logsumexp(per_comp, axis=0), rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# forward marginals
# ----------------------------------------------------------------------


def test_forward_marginal_t0_identity(prior_2d, schedule):
    out = diffuse(prior_2d, schedule.alpha_bar(0))
    assert out is prior_2d


def test_forward_marginal_closed_form():
    g = isotropic_gmm(np.array([[2.0, 0.0]]), 1.0)
    out = diffuse(g, 0.25)
    np.testing.assert_allclose(out.means, [[1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(out.covariances[0], np.eye(2), atol=1e-14)


def test_forward_marginal_terminal_near_standard_normal(prior_2d):
    # the default toy schedule keeps abar_T ~ 0.37, so use a wider beta ramp
    # for the fully-noised regime this example is about
    from das import NoiseSchedule

    schedule = NoiseSchedule.linear(steps=100, beta_end=0.15)
    t = schedule.steps
    assert schedule.alpha_bar(t) < 1e-3
    out = diffuse(prior_2d, schedule.alpha_bar(t))
    # moment-match against brute-force noising of prior draws
    rng = np.random.default_rng(11)
    x0 = prior_2d.sample(100_000, rng)
    abar = schedule.alpha_bar(t)
    xt = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * rng.standard_normal(x0.shape)
    mix_mean = out.weights @ out.means
    se = xt.std(0) / np.sqrt(len(xt))
    assert np.all(np.abs(xt.mean(0) - mix_mean) < 3 * se)
    mix_cov = sum(
        w * (c + np.outer(m - mix_mean, m - mix_mean))
        for w, m, c in zip(out.weights, out.means, out.covariances)
    )
    emp_cov = np.cov(xt.T)
    assert np.abs(emp_cov - mix_cov).max() < 0.02
    assert np.abs(mix_cov - np.eye(2)).max() < 0.05


def test_forward_marginal_composes(prior_2d, schedule):
    s, t = 30, 80
    abar_s, abar_t = schedule.alpha_bar(s), schedule.alpha_bar(t)
    direct = diffuse(prior_2d, abar_t)
    two_step = diffuse(diffuse(prior_2d, abar_s), abar_t / abar_s)
    np.testing.assert_allclose(two_step.means, direct.means, atol=1e-10)
    np.testing.assert_allclose(two_step.covariances, direct.covariances, atol=1e-10)


def test_forward_marginal_t_out_of_range(prior_2d, schedule):
    with pytest.raises(InputError, match=r"t=101 outside \[0, 100\]"):
        diffuse(prior_2d, schedule.alpha_bar(schedule.steps + 1))


# ----------------------------------------------------------------------
# exact tilt
# ----------------------------------------------------------------------


def test_tilt_huge_alpha_is_identity(prior_2d):
    out = tilt_quadratic(prior_2d, fig1_top_reward(), 1e12)
    np.testing.assert_allclose(out.weights, prior_2d.weights, atol=1e-6)
    np.testing.assert_allclose(out.means, prior_2d.means, atol=1e-6)
    np.testing.assert_allclose(out.covariances, prior_2d.covariances, atol=1e-6)


def test_tilt_constant_reward_is_identity(prior_2d):
    out = tilt_quadratic(prior_2d, QuadraticReward.zero(2), 1.0)
    np.testing.assert_allclose(out.weights, prior_2d.weights, atol=1e-14)
    np.testing.assert_allclose(out.means, prior_2d.means, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
def test_tilt_log_density_constancy(alpha):
    rng = np.random.default_rng(3)
    g = random_gmm(rng, k=3, d=2)
    reward = QuadraticReward(np.diag([1 / 100, 1.0]), np.array([0.3, -0.1]), 0.7)
    tilted = tilt_quadratic(g, reward, alpha)
    x = rng.normal(scale=2.0, size=(1000, 2))
    diff = tilted.log_density(x) - (g.log_density(x) + reward.value(x) / alpha)
    assert diff.max() - diff.min() < 1e-8


def test_tilt_single_standard_normal_case():
    g = isotropic_gmm(np.zeros((1, 2)), 1.0)
    tilted = tilt_quadratic(g, fig1_top_reward(), 1.0)
    x = np.random.default_rng(5).normal(size=(100, 2)) * 2
    diff = tilted.log_density(x) - (g.log_density(x) + fig1_top_reward().value(x))
    assert diff.max() - diff.min() < 1e-8


class _ConvexQuadratic:
    """Reward stand-in with convex quadratic part, as a fitted surrogate can
    produce; QuadraticReward itself forbids this."""

    a_matrix = np.array([[-1.0]])
    b = np.zeros(1)
    c = 0.0


def test_tilt_degenerate_raises():
    g = Gmm(np.array([1.0]), np.zeros((1, 1)), np.array([[[1.0]]]))
    with pytest.raises(DegenerateTargetError):
        tilt_quadratic(g, _ConvexQuadratic(), 1.0)


def test_tilt_names_the_first_degenerate_component():
    """Components 1 and 2 lose positive-definiteness under the convex
    reward (precisions 1 and 0.5 less 2); the error names component 1."""
    g = Gmm(np.array([0.2, 0.3, 0.5]), np.zeros((3, 1)), np.array([[[0.25]], [[1.0]], [[2.0]]]))
    with pytest.raises(DegenerateTargetError, match="tilted precision of component 1 not positive-definite; "
                       "alpha=1.0 too small for this reward curvature"):
        tilt_quadratic(g, _ConvexQuadratic(), 1.0)


class _NanQuadratic:
    """Reward stand-in whose A holds a NaN, which QuadraticReward forbids."""

    def __init__(self, a):
        self.a_matrix, self.b, self.c = np.array(a), np.zeros(2), 0.0


def test_tilt_with_a_nan_curvature_fails_as_eigvalsh_reports_it():
    """A NaN on the diagonal of a tilted precision gives eigenvalues
    (0, -0), and a NaN off the diagonal gives NaN eigenvalues: neither is
    > 0, so the check flags component 0 either way."""
    g = Gmm(np.array([0.5, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2), 2.0 * np.eye(2)]))
    for a in ([[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, np.nan]], [[0.0, np.nan], [np.nan, 0.0]]):
        with pytest.raises(DegenerateTargetError, match="component 0 not positive-definite"):
            tilt_quadratic(g, _NanQuadratic(a), 1.0)


def test_expected_quadratic_reward_matches_monte_carlo(prior_2d):
    reward = fig1_top_reward()
    exact = expected_quadratic_reward(prior_2d, reward)
    x = prior_2d.sample(400_000, 17)
    vals = reward.value(x)
    se = vals.std() / np.sqrt(len(vals))
    assert abs(exact - vals.mean()) < 4 * se


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def test_sample_moments():
    g = isotropic_gmm(np.zeros((1, 2)), 1.0)
    x = g.sample(100_000, 0)
    assert np.all(np.abs(x.mean(0)) < 0.02)


def test_sample_deterministic(prior_2d):
    np.testing.assert_array_equal(prior_2d.sample(50, 42), prior_2d.sample(50, 42))


def test_sample_degenerate_weights():
    g = Gmm(
        np.array([1.0, 0.0]),
        np.array([[5.0, 5.0], [-5.0, -5.0]]),
        np.broadcast_to(0.01 * np.eye(2), (2, 2, 2)).copy(),
    )
    x = g.sample(200, 3)
    assert np.all(np.linalg.norm(x - np.array([5.0, 5.0]), axis=1) < 2.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sample_seed_determinism_property(seed):
    g = isotropic_gmm(np.array([[0.0, 0.0], [3.0, 3.0]]), 0.5)
    np.testing.assert_array_equal(g.sample(8, seed), g.sample(8, seed))
