import numpy as np
import pytest

from das import (
    Gmm,
    GmmScoreProvider,
    MlpDenoiser,
    NetScoreProvider,
    NoiseSchedule,
    SmcConfig,
    ancestral_sample,
    emd_capped,
    forward_marginal,
    make_swiss_roll,
    run_das,
)
from das.diffusion import reverse_mean
from das.errors import InputError
from das.gmm import isotropic_gmm
from das.rewards import fig1_bottom_reward
from helpers import random_mixture, tweedie_x0


class ZeroScore:
    dim = 2

    def score(self, x, t):
        return np.zeros_like(x)

    def score_jacobian(self, x, t):
        return np.zeros_like(x), lambda v, a, b: v / b


def test_posterior_mean_zero_score(schedule):
    x = np.array([[1.0, -2.0]])
    t = 40
    mu = reverse_mean(schedule, x, ZeroScore().score(x, t), t)
    np.testing.assert_allclose(mu, x / np.sqrt(1 - schedule.beta(t)), atol=1e-14)


def test_posterior_mean_rejects_t0(schedule):
    with pytest.raises(InputError):
        reverse_mean(schedule, np.zeros((1, 2)), np.zeros((1, 2)), 0)


def test_posterior_mean_matches_reverse_conditional_oracle(schedule, single_gaussian_2d):
    """For the standard-normal prior, kernel draws around mu(x_t, t) must
    average to the importance-sampled posterior mean E[x_{t-1} | x_t]."""
    provider = GmmScoreProvider(single_gaussian_2d, schedule)
    rng = np.random.default_rng(0)
    t = 60
    x_t = np.array([[0.8, -1.1]])
    mu = reverse_mean(schedule, x_t, provider.score(x_t, t), t)
    sigma = schedule.sigma(t)
    draws = mu + sigma * rng.standard_normal((100_000, 2))

    # oracle: weight prior-marginal draws of x_{t-1} by the transition density
    beta = schedule.beta(t)
    cand = single_gaussian_2d.sample(200_000, rng)  # p_{t-1} = N(0, I) for this prior
    logw = -np.sum((x_t - np.sqrt(1 - beta) * cand) ** 2, axis=1) / (2 * beta)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    oracle_mean = w @ cand
    oracle_se = np.sqrt(w @ (cand - oracle_mean) ** 2 * np.sum(w**2))
    kernel_se = draws.std(0) / np.sqrt(len(draws))
    tol = 3 * np.sqrt(oracle_se**2 + kernel_se**2)
    assert np.all(np.abs(draws.mean(0) - oracle_mean) < tol)


def test_posterior_mean_small_beta_limit():
    sched = NoiseSchedule(betas=np.full(3, 1e-8))
    x = np.array([[0.5, 0.25]])
    prior = isotropic_gmm(np.zeros((1, 2)), 1.0)
    mu = reverse_mean(sched, x, GmmScoreProvider(prior, sched).score(x, 2), 2)
    assert np.linalg.norm(mu - x) < 1e-6


# ----------------------------------------------------------------------
# providers
# ----------------------------------------------------------------------


def _provider(kind, aniso_3d, schedule):
    if kind == "gmm":
        return GmmScoreProvider(aniso_3d, schedule)
    return NetScoreProvider(MlpDenoiser(d=3, t_max=schedule.steps, seed=5), schedule)


@pytest.mark.parametrize("kind", ["gmm", "mlp"])
def test_provider_pair_score_equals_score(kind, aniso_3d, schedule):
    """The pair's score is ``score``'s, and its pullback maps ``(n, d)``
    vectors to ``(n, d)`` vectors."""
    provider = _provider(kind, aniso_3d, schedule)
    x = np.random.default_rng(21).normal(size=(30, 3))
    v = np.random.default_rng(24).normal(size=(30, 3))
    for t in (1, 37, 100):
        s, pullback = provider.score_jacobian(x, t)
        np.testing.assert_array_equal(s, provider.score(x, t))
        abar = schedule.alpha_bar(t)
        assert pullback(v, 1.0 - abar, np.sqrt(abar)).shape == (30, 3)


def _lone_rows(provider, x, v, t, a, b, rows):
    """Score and pullback of each listed row, each from a one-row call."""
    scores, pulled = [], []
    for i in rows:
        s, pullback = provider.score_jacobian(x[i : i + 1], t)
        scores.append(s)
        pulled.append(pullback(v[i : i + 1], a, b))
    return np.concatenate(scores), np.concatenate(pulled)


@pytest.mark.parametrize("kind", ["gmm", "mlp"])
def test_provider_stacked_rows_equal_row_by_row(kind, aniso_3d, schedule):
    """Pooled sweeps stack their particles into one provider call; each row's
    score and pullback must not depend on the rows beside it.  Checked for
    d in {2, 3, 5} at 1, 5, 16, 133, 511, 512, 513 (the boundary of the
    MLP's passes of BLOCK * GROUP rows) and 4096 rows, against one-row calls
    of the first 133 rows, rows 505 to 520, every 61st row and the last.  The
    MLP provider computes in float32, the mixture in float64."""
    for d in (2, 3, 5):
        if kind == "gmm":
            provider = GmmScoreProvider(aniso_3d if d == 3 else random_mixture(3, d, d), schedule)
        else:
            provider = NetScoreProvider(MlpDenoiser(d=d, t_max=schedule.steps, seed=5), schedule)
        rng = np.random.default_rng(22)
        x, v = rng.normal(size=(4096, d)), rng.normal(size=(4096, d))
        rows = np.unique(np.r_[np.arange(133), np.arange(505, 521), np.arange(0, 4096, 61), 4095])
        for t in (1, 37, 100):
            abar = schedule.alpha_bar(t)
            a, b = 1.0 - abar, np.sqrt(abar)
            lone_s, lone_p = _lone_rows(provider, x, v, t, a, b, rows)
            for n in (1, 5, 16, 133, 511, 512, 513, 4096):
                s, pullback = provider.score_jacobian(x[:n], t)
                here = rows < n
                np.testing.assert_array_equal(s[rows[here]], lone_s[here])
                np.testing.assert_array_equal(pullback(v[:n], a, b)[rows[here]], lone_p[here])
                np.testing.assert_array_equal(provider.score(x[:n], t)[rows[here]], lone_s[here])


# (K, d, seed) of the random mixtures, which cover K = 7, 8, 9 and d = MAX_DIM
RANDOM_MIXTURES = {"k7": (7, 3, 5), "k8": (8, 2, 6), "k9": (9, 2, 3), "d8": (2, 8, 4)}
MIXTURES = ["fig1", "aniso_3d", *RANDOM_MIXTURES]


def _mixture(name, prior_2d, aniso_3d):
    if name in RANDOM_MIXTURES:
        return random_mixture(*RANDOM_MIXTURES[name])
    return {"fig1": prior_2d, "aniso_3d": aniso_3d}[name]


@pytest.mark.parametrize("mixture", MIXTURES)
def test_mixture_rows_do_not_depend_on_the_call_size(mixture, prior_2d, aniso_3d, schedule):
    """Stable by construction: at any row count, each row of ``score`` and
    of ``score_jacobian``'s score and pullback (and of the marginal's
    ``score_and_hessian``, ``log_density`` and ``responsibilities``) equals
    a one-row call bit for bit, and the Hessian equals its own transpose.
    K = 7, 8 and 9 components and d = MAX_DIM cover the sums that numpy
    would group pairwise over a lone row of 8 or more terms: the mixture
    sums its components in one reduction below K = 8 and in Python from 8."""
    gmm = _mixture(mixture, prior_2d, aniso_3d)
    provider = GmmScoreProvider(gmm, schedule)
    rng = np.random.default_rng(23)
    x, v = rng.normal(size=(133, gmm.dim)), rng.normal(size=(133, gmm.dim))
    for t in (1, 37, 100):
        abar = schedule.alpha_bar(t)
        a, b = 1.0 - abar, np.sqrt(abar)
        marginal = provider.marginal(t)
        lone_s, lone_p = _lone_rows(provider, x, v, t, a, b, range(len(x)))
        lone_h = np.concatenate([marginal.score_and_hessian(x[i : i + 1])[1] for i in range(len(x))])
        row_scores = np.concatenate([provider.score(x[i : i + 1], t) for i in range(len(x))])
        for n in (1, 5, 7, 8, 9, 53, 133):
            s, pullback = provider.score_jacobian(x[:n], t)
            np.testing.assert_array_equal(s, lone_s[:n])
            np.testing.assert_array_equal(pullback(v[:n], a, b), lone_p[:n])
            s_h, hess = marginal.score_and_hessian(x[:n])
            np.testing.assert_array_equal(s_h, lone_s[:n])
            np.testing.assert_array_equal(hess, lone_h[:n])
            np.testing.assert_array_equal(hess, hess.transpose(0, 2, 1))
            np.testing.assert_array_equal(provider.score(x[:n], t), row_scores[:n])
            np.testing.assert_array_equal(s, row_scores[:n])
        for method in (marginal.log_density, marginal.responsibilities):
            np.testing.assert_array_equal(method(x), np.concatenate([method(x[i : i + 1]) for i in range(len(x))]))


@pytest.mark.parametrize("mixture", [*MIXTURES, "signed_zeros"])
def test_mixture_table_rows_are_the_forward_marginals_constants(mixture, prior_2d, aniso_3d, schedule):
    """Row t of the provider's table, built for every t in one batched pass,
    holds the kernel constants of ``forward_marginal(prior, schedule, t)``
    bit for bit, at every t = 0..T; row 0 holds the prior's own, also where
    the prior's -0.0 entries become +0.0 in the stack (1 Sigma + 0 I)."""
    if mixture == "signed_zeros":
        cov = np.array([[1.0, -0.0, 0.3], [-0.0, 2.0, -0.0], [0.3, -0.0, 0.5]])
        gmm = Gmm(np.array([0.4, 0.6]), np.array([[-0.0, 1.0, -0.0], [0.5, -0.0, 2.0]]), np.stack([cov, 2.0 * cov]))
    else:
        gmm = _mixture(mixture, prior_2d, aniso_3d)
    table = GmmScoreProvider(gmm, schedule)._table
    assert len(table) == schedule.steps + 1
    for t in range(schedule.steps + 1):
        for got, want in zip(table[t], forward_marginal(gmm, schedule, t)._columns, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), t


def test_mixture_provider_rejects_a_time_outside_the_schedule(prior_2d, schedule):
    """t = -1 would index the table's last row; it raises, as t = T + 1 does."""
    provider = GmmScoreProvider(prior_2d, schedule)
    x = np.zeros((3, 2))
    calls = (provider.marginal, lambda t: provider.score(x, t), lambda t: provider.score_jacobian(x, t))
    for t in (-1, schedule.steps + 1):
        for call in calls:
            with pytest.raises(InputError, match=rf"t={t} outside \[0, {schedule.steps}\]"):
                call(t)


def test_sampling_on_the_mixture_provider_builds_no_mixture(prior_2d, schedule, monkeypatch):
    """The provider's constructor and whole guided and unguided runs on it
    construct no ``Gmm``: sampling reads the table, never a per-t marginal."""
    built = []
    post_init = Gmm.__post_init__
    monkeypatch.setattr(Gmm, "__post_init__", lambda self: built.append(1) or post_init(self))
    provider = GmmScoreProvider(prior_2d, schedule)
    run_das(SmcConfig(particles=8, temper_mode="adaptive", seed=3), provider, schedule, fig1_bottom_reward())
    run_das(SmcConfig(particles=8, seed=4), provider, schedule, fig1_bottom_reward(), guided_proposal=False)
    assert built == []
    provider.marginal(7)
    assert built == [1]


@pytest.mark.parametrize("d", range(1, 9))
def test_mixture_pullback_bits_match_the_einsum_reference(d, schedule):
    """The pullback on the Hessian's (d, d, n) planes is, bit for bit and
    signed zeros included, the contraction it replaced: einsum of
    (I + a H) / b, built on the (n, d, d) Hessian with ``np.eye``, against
    v.  K = 1 to 9 components, 1, 5 and 133 rows, exact zeros in x and v."""
    for k in (1, 3, 6, 7, 8, 9):
        provider = GmmScoreProvider(random_mixture(k, d, 10 * d + k), schedule)
        rng = np.random.default_rng(d + k)
        for n in (1, 5, 133):
            x, v = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            x[rng.random((n, d)) < 0.2] = 0.0
            v[rng.random((n, d)) < 0.3] = 0.0
            v[rng.random((n, d)) < 0.2] = -0.0
            for t in (1, 37, 100):
                abar = schedule.alpha_bar(t)
                a, b = 1.0 - abar, np.sqrt(abar)
                _, hess = provider.marginal(t).score_and_hessian(x)
                want = np.einsum("nde,nd->ne", (np.eye(d)[None] + a * hess) / b, v)
                got = provider.score_jacobian(x, t)[1](v, a, b)
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (k, n, t)


@pytest.mark.parametrize("kind", ["gmm", "mlp"])
def test_pullback_rejects_vectors_of_the_wrong_shape(kind, aniso_3d, schedule):
    """A pullback takes one d-vector per row of its call: ``(1, d)`` and
    ``(n, 1)`` vectors would broadcast, so they raise, naming the expected
    shape, as do other wrong shapes."""
    provider = _provider(kind, aniso_3d, schedule)
    x = np.random.default_rng(25).normal(size=(6, 3))
    _, pullback = provider.score_jacobian(x, 40)
    for shape in ((1, 3), (6, 1), (6, 4), (3,), (2, 6, 3)):
        with pytest.raises(InputError, match=r"expected \(6, 3\)"):
            pullback(np.ones(shape), 0.5, 0.7)


# ----------------------------------------------------------------------
# Tweedie denoising
# ----------------------------------------------------------------------


def test_tweedie_t0_identity(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    x = np.array([[0.3, 0.4], [1.0, -1.0]])
    x0, jac = tweedie_x0(provider, schedule, x, 0)
    np.testing.assert_array_equal(x0, x)
    np.testing.assert_array_equal(jac[0], np.eye(2))


def test_tweedie_matches_conditional_expectation(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    rng = np.random.default_rng(9)
    x0_draws = prior_2d.sample(1_000_000, rng)
    for t in rng.integers(5, 95, size=5):
        t = int(t)
        abar = schedule.alpha_bar(t)
        x_t = np.sqrt(abar) * prior_2d.sample(1, rng) + np.sqrt(1 - abar) * rng.standard_normal((1, 2))
        pred, _ = tweedie_x0(provider, schedule, x_t, t)
        # importance weights: q(x_t | x_0)
        logw = -np.sum((x_t - np.sqrt(abar) * x0_draws) ** 2, axis=1) / (2 * (1 - abar))
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mc = w @ x0_draws
        se = np.sqrt(np.sum(w[:, None] * (x0_draws - mc) ** 2, axis=0) * np.sum(w**2))
        assert np.all(np.abs(pred[0] - mc) < 3 * se + 1e-9)


def test_tweedie_jacobian_matches_finite_differences(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 2))
    for t in (7, 45, 93):
        _, jac = tweedie_x0(provider, schedule, x, t)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            hi, _ = tweedie_x0(provider, schedule, x + e, t)
            lo, _ = tweedie_x0(provider, schedule, x - e, t)
            fd = (hi - lo) / (2 * h)
            rel = np.abs(jac[:, :, j] - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() < 1e-5


# ----------------------------------------------------------------------
# ancestral sampling
# ----------------------------------------------------------------------


def test_ancestral_deterministic(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    a = ancestral_sample(provider, schedule, 5, seed=3)
    b = ancestral_sample(provider, schedule, 5, seed=3)
    np.testing.assert_array_equal(a, b)


def test_ancestral_single_gaussian_moments(schedule, single_gaussian_2d):
    """For the standard-normal prior the sampler's law is exactly Gaussian
    with a variance given by the kernel recursion (slightly below 1 because
    the posterior-variance sigma under-disperses at T=100); sampled moments
    must match that closed form."""
    provider = GmmScoreProvider(single_gaussian_2d, schedule)
    x = ancestral_sample(provider, schedule, 40_000, seed=1)
    exact_var = 1.0
    for t in range(schedule.steps, 0, -1):
        exact_var = (1 - schedule.beta(t)) * exact_var + schedule.sigma(t) ** 2
    assert 0.95 < exact_var < 1.0
    se = np.sqrt(exact_var / len(x))
    assert np.all(np.abs(x.mean(0)) < 3 * se)
    assert np.all(np.abs(x.var(0) - exact_var) < 3 * np.sqrt(2 / len(x)) * exact_var)


def test_ancestral_matches_prior_distribution(schedule, prior_2d):
    provider = GmmScoreProvider(prior_2d, schedule)
    draws = ancestral_sample(provider, schedule, 2000, seed=2)
    ref = prior_2d.sample(2000, 1001)
    cross = emd_capped(draws, ref, seed=0)
    self_dist = emd_capped(prior_2d.sample(2000, 1002), prior_2d.sample(2000, 1003), seed=0)
    assert cross < 1.5 * self_dist


DRAWS = {
    "Gmm.sample": lambda prior, schedule, seed: prior.sample(7, seed),
    "ancestral_sample": lambda prior, schedule, seed: ancestral_sample(
        GmmScoreProvider(prior, schedule), schedule, 7, seed
    ),
    "make_swiss_roll": lambda prior, schedule, seed: make_swiss_roll(7, 0.1, seed),
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_a_generator_seed_is_drawn_from_as_given(name, prior_2d, schedule):
    """Two calls on one Generator give the bytes of the same two calls on a
    fresh ``default_rng(s)``: the first equals a call seeded by ``s`` and the
    second continues the stream."""
    draw = DRAWS[name]
    rng = np.random.default_rng(5)
    got = [draw(prior_2d, schedule, rng).tobytes() for _ in range(2)]
    fresh = np.random.default_rng(5)
    assert got == [draw(prior_2d, schedule, fresh).tobytes() for _ in range(2)]
    assert got[0] == draw(prior_2d, schedule, 5).tobytes() != got[1]
