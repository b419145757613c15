"""Online black-box reward optimization with a sampled exploration loop.

Each round draws a batch from the pre-trained model tilted by an optimistic
surrogate (point estimate plus uncertainty bonus), queries the black box on
the batch, and refits the surrogate on all feedback so far: every query point
and its observation, kept as two arrays that grow by one batch a round.  Round
one has no feedback yet and samples from the pre-trained model itself.

The surrogate is ridge regression on degree-2 polynomial features, so
quadratic ground truths are exactly representable.  Uncertainty is either a
leverage bonus from the regularized feature Gram (UCB) or the spread of a
bootstrap ensemble.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import ScoreProvider, ancestral_sample
from .errors import DegenerateEnsembleError, GuidanceExplosionError, InputError, check_range
from .rewards import RewardModel
from .schedule import NoiseSchedule
from .smc import SmcConfig, derive_sweep_seed, pooled_runs
from .tables import csv_text


class OnlineRoundError(RuntimeError):
    """A sampling round failed, usually because the surrogate tilt degenerated."""


# ----------------------------------------------------------------------
# features and surrogate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolyFeatures:
    """Degree-2 monomials: constant, linear, and upper-triangle quadratics."""

    d: int

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.d) for j in range(i, self.d)]

    @property
    def size(self) -> int:
        return 1 + self.d + self.d * (self.d + 1) // 2

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        quads = [x[:, i] * x[:, j] for i, j in self.pairs]
        return np.column_stack([np.ones(x.shape[0]), x, *quads])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d phi / d x, shape ``(n, F, d)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        jac = np.zeros((n, self.size, self.d))
        for i in range(self.d):
            jac[:, 1 + i, i] = 1.0
        for row, (i, j) in enumerate(self.pairs):
            jac[:, 1 + self.d + row, i] += x[:, j]
            jac[:, 1 + self.d + row, j] += x[:, i]
        return jac


@dataclass(frozen=True)
class SurrogateConfig:
    ridge: float = 1e-3
    mode: str = "ucb"  # ucb | bootstrap
    beta: float = 1.0
    members: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("ucb", "bootstrap"):
            raise InputError("mode must be 'ucb' or 'bootstrap'")
        check_range("ridge", self.ridge, 0)
        check_range("beta", self.beta, 0)
        check_range("members", self.members, 1, count=True)
        check_range("seed", self.seed, 0, count=True)


@dataclass
class SurrogateModel:
    """Ridge fit on polynomial features plus an uncertainty oracle."""

    features: PolyFeatures
    weights: np.ndarray
    gram_inv: np.ndarray
    beta: float
    mode: str
    member_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.mode == "bootstrap" and self.member_weights is None:
            raise InputError("a bootstrap surrogate needs fitted ensemble members")

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.features(x) @ self.weights

    def predict_gradient(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("nfd,f->nd", self.features.jacobian(x), self.weights)

    def bonus(self, x: np.ndarray) -> np.ndarray:
        if self.mode == "ucb":
            phi = self.features(x)
            lev = np.einsum("nf,fg,ng->n", phi, self.gram_inv, phi)
            return self.beta * np.sqrt(np.maximum(lev, 0.0))
        preds = self.features(x) @ self.member_weights.T  # (n, M)
        return self.beta * np.sqrt(np.maximum(preds.var(axis=1), 0.0) + 1e-300)

    def bonus_gradient(self, x: np.ndarray) -> np.ndarray:
        jac = self.features.jacobian(x)
        if self.mode == "ucb":
            phi = self.features(x)
            q = phi @ self.gram_inv  # (n, F)
            lev = np.maximum(np.einsum("nf,nf->n", q, phi), 1e-300)
            return self.beta * np.einsum("nf,nfd->nd", q, jac) / np.sqrt(lev)[:, None]
        phi = self.features(x)
        preds = phi @ self.member_weights.T  # (n, M)
        centered = preds - preds.mean(axis=1, keepdims=True)
        var = np.maximum(preds.var(axis=1), 1e-300)
        dev_w = self.member_weights - self.member_weights.mean(axis=0)  # (M, F)
        grad_var = 2.0 * np.einsum("nm,mf,nfd->nd", centered, dev_w, jac) / preds.shape[1]
        return self.beta * grad_var / (2.0 * np.sqrt(var))[:, None]

    def to_json_dict(self) -> dict:
        doc = {
            "weights": self.weights.tolist(),
            "gram_inv": self.gram_inv.tolist(),
            "beta": float(self.beta),  # a float even when the config gave an integer
            "mode": self.mode,
            "d": self.features.d,
        }
        if self.member_weights is not None:
            doc["member_weights"] = self.member_weights.tolist()
        return doc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)


@dataclass(frozen=True)
class OptimisticSurrogate:
    """Surrogate point estimate plus bonus, exposed as a reward model."""

    model: SurrogateModel

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict(x) + self.model.bonus(x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict_gradient(x) + self.model.bonus_gradient(x)


def _gram(phi: np.ndarray, ridge: float) -> np.ndarray:
    return phi.T @ phi + ridge * np.eye(phi.shape[1])


def _ridge_fit(phi: np.ndarray, y: np.ndarray, ridge: float, gram: np.ndarray | None = None) -> np.ndarray:
    """Ridge weights; ``gram`` is ``_gram(phi, ridge)``, built here when not given."""
    if gram is None:
        gram = _gram(phi, ridge)
    try:
        return np.linalg.solve(gram, phi.T @ y)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"singular normal equations; increase regularization (ridge={ridge})") from exc


def fit_surrogate(xs: np.ndarray, ys: np.ndarray, config: SurrogateConfig) -> SurrogateModel:
    """Ridge regression of the observations ``ys`` on degree-2 features of the
    query points ``xs``; bootstrap mode also fits ``members`` resampled copies
    for the uncertainty spread."""
    n, d = ys.size, xs.shape[1]
    if n < d + 1:
        raise InputError(f"need at least {d + 1} observations, got {n}")
    feats = PolyFeatures(d)
    phi = feats(xs)
    gram = _gram(phi, config.ridge)
    if np.linalg.eigvalsh(gram).min() <= 0:
        raise InputError("singular normal equations; increase regularization")
    weights = _ridge_fit(phi, ys, config.ridge, gram)
    member_weights = None
    if config.mode == "bootstrap":
        rng = np.random.default_rng(config.seed)
        members = []
        for _ in range(config.members):
            idx = rng.integers(0, n, size=n)
            members.append(_ridge_fit(phi[idx], ys[idx], config.ridge))
        member_weights = np.stack(members)
    return SurrogateModel(
        features=feats,
        weights=weights,
        gram_inv=np.linalg.inv(gram),
        beta=config.beta,
        mode=config.mode,
        member_weights=member_weights,
    )


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineConfig:
    rounds: int = 8
    budget: int = 1024
    noise_std: float = 0.1
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    smc: SmcConfig = field(default_factory=SmcConfig)
    seed: int = 0

    def __post_init__(self):
        check_range("rounds", self.rounds, 1, count=True)
        check_range("budget", self.budget, 1, count=True)
        check_range("noise_std", self.noise_std, 0)
        check_range("seed", self.seed, 0, count=True)
        if self.budget % self.rounds != 0:
            raise InputError("budget must divide evenly over rounds")

    @property
    def batch(self) -> int:
        return self.budget // self.rounds


@dataclass
class RoundRecord:
    round: int
    queries_used: int
    mean_true_reward: float
    surrogate_rmse: float


@dataclass
class OnlineHistory:
    rows: list[RoundRecord]
    surrogate: SurrogateModel

    def to_csv(self) -> str:
        return csv_text(
            ["round", "queries_used", "mean_true_reward", "surrogate_rmse"],
            ([r.round, r.queries_used, f"{r.mean_true_reward:.10g}", f"{r.surrogate_rmse:.10g}"] for r in self.rows),
        )


def run_online_loop(
    black_box: RewardModel,
    provider: ScoreProvider,
    schedule: NoiseSchedule,
    config: OnlineConfig,
) -> OnlineHistory:
    """Iterate sample -> query -> refit for ``config.rounds`` rounds within the
    query budget.  Deterministic given ``config.seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 77]))
    batch = config.batch
    seen_x, seen_y = np.empty((0, provider.dim)), np.empty(0)  # every query so far
    surrogate: SurrogateModel | None = None
    rows: list[RoundRecord] = []

    for i in range(1, config.rounds + 1):
        round_seed = derive_sweep_seed(config.seed, i)
        if surrogate is None:
            xs = ancestral_sample(provider, schedule, batch, round_seed)
        else:
            tilt = OptimisticSurrogate(surrogate)
            try:
                [(xs, _)] = pooled_runs(config.smc, provider, schedule, tilt, [round_seed], batch)
            except (GuidanceExplosionError, DegenerateEnsembleError) as exc:
                raise OnlineRoundError(f"round {i} failed with alpha={config.smc.alpha}: {exc}") from exc
        true_vals = black_box.value(xs)
        ys = true_vals + config.noise_std * rng.standard_normal(batch)
        seen_x, seen_y = np.concatenate([seen_x, xs], axis=0), np.concatenate([seen_y, ys])
        surrogate = fit_surrogate(seen_x, seen_y, replace(config.surrogate, seed=round_seed))
        rmse = float(np.sqrt(np.mean((surrogate.predict(xs) - true_vals) ** 2)))
        rows.append(
            RoundRecord(
                round=i,
                queries_used=seen_y.size,
                mean_true_reward=float(np.mean(true_vals)),
                surrogate_rmse=rmse,
            )
        )
    assert seen_y.size <= config.budget
    return OnlineHistory(rows=rows, surrogate=surrogate)
