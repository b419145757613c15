"""Small noise-prediction MLP trained by denoising score matching.

Forward and backward passes are written out by hand (float64 throughout) so
that input Jacobians are available exactly -- guidance differentiates through
the network -- and so the backward pass can be finite-difference checked.

Architecture: [x, t/T, sin(pi t/T), cos(pi t/T)] -> 64 tanh -> 64 tanh -> d.
tanh keeps the Jacobian smooth everywhere.

Inference (:meth:`MlpDenoiser.predict`, :meth:`MlpDenoiser.predict_and_jacobian`)
is one blocked kernel.  The feature rows are padded to whole blocks of
``BLOCK`` rows, and every matrix product multiplies one block: its left
operand has ``BLOCK`` rows (``BLOCK * d`` in the Jacobian) whatever the call
size.  Every gemm therefore has the same shape in every call, so a row's
result does not depend on how many rows share the call, by construction (see
:mod:`das.blas`), and pooled sweeps reproduce lone sweeps bit for bit.

The loop walks ``GROUP`` blocks at a time: numpy runs a stacked
``(blocks, BLOCK, i) @ (i, o)`` product as one gemm per block.  A group (128
rows) is small enough that the hidden activations h1 and h2 are still in cache
when the input Jacobian is formed right after the forward pass.  With
s1 = 1 - h1^2 and s2 = 1 - h2^2 that is one gemm per layer on the
``(BLOCK * d, H)`` rows: ``(w3^T * s2) @ w2^T``, times s1, then ``@ w1[:d]^T``
(only the d input columns).  The block is small so that a short call (16
particles) pads little; the group is large so that a long call (4096
particles) makes few passes through the Python loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .blas import pad_rows
from .errors import InputError, TrainingError
from .schedule import NoiseSchedule

HIDDEN = 64
N_TIME_FEATURES = 3
BLOCK = 16  # rows of every inference gemm
GROUP = 8  # blocks per pass of the inference loop


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 1000
    batch_size: int = 256
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError("learning rate must be positive")
        if self.epochs < 1:
            raise InputError("need epochs >= 1")
        if self.batch_size < 1:
            raise InputError("need batch_size >= 1")


class MlpDenoiser:
    """Two-hidden-layer epsilon-prediction network with explicit parameters."""

    def __init__(self, d: int, t_max: int, hidden: int = HIDDEN, seed: int = 0):
        self.d = d
        self.t_max = t_max
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        n_in = d + N_TIME_FEATURES
        self.w1 = rng.standard_normal((n_in, hidden)) / np.sqrt(n_in)
        self.b1 = np.zeros(hidden)
        self.w2 = rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)
        self.b2 = np.zeros(hidden)
        self.w3 = rng.standard_normal((hidden, d)) / np.sqrt(hidden)
        self.b3 = np.zeros(d)

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def _features(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        tt = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        phase = np.pi * tt / self.t_max
        return np.concatenate(
            [x, (tt / self.t_max)[:, None], np.sin(phase)[:, None], np.cos(phase)[:, None]],
            axis=1,
        )

    def _forward(self, feats: np.ndarray):
        h1 = np.tanh(feats @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        out = h2 @ self.w3 + self.b3
        return out, (feats, h1, h2)

    def _infer(self, x: np.ndarray, t, jacobian: bool):
        """Blocked forward pass on particle rows and, when ``jacobian``, the
        input Jacobian of each row (see the module docstring); returns
        ``(out, jac)`` with ``jac`` None when not asked for."""
        feats = self._features(x, t)
        n = feats.shape[0]
        feats = pad_rows(feats, BLOCK)
        rows, d, hidden = feats.shape[0], self.d, self.hidden
        out = np.empty((rows, d))
        jac = np.empty((rows, d, d)) if jacobian else None
        w3t, w2t, w1xt = self.w3.T, self.w2.T, self.w1[:d].T
        for lo in range(0, rows, BLOCK * GROUP):
            hi = min(lo + BLOCK * GROUP, rows)
            k = (hi - lo) // BLOCK
            h1 = feats[lo:hi].reshape(k, BLOCK, -1) @ self.w1
            h1 += self.b1
            np.tanh(h1, out=h1)
            h2 = h1 @ self.w2
            h2 += self.b2
            np.tanh(h2, out=h2)
            np.matmul(h2, self.w3, out=out[lo:hi].reshape(k, BLOCK, d))
            if jacobian:
                a = w3t * (1.0 - h2 * h2)[:, :, None, :]  # (k, BLOCK, d, H)
                a = (a.reshape(k, BLOCK * d, hidden) @ w2t).reshape(k, BLOCK, d, hidden)
                a *= (1.0 - h1 * h1)[:, :, None, :]
                np.matmul(a.reshape(k, BLOCK * d, hidden), w1xt, out=jac[lo:hi].reshape(k, BLOCK * d, d))
        out += self.b3
        return out[:n], None if jac is None else jac[:n]

    def predict(self, x: np.ndarray, t) -> np.ndarray:
        """Predicted noise, shape ``(n, d)``."""
        return self._infer(x, t, jacobian=False)[0]

    def _backward(self, cache, grad_out: np.ndarray):
        """Gradients of sum(grad_out * out) wrt parameters and input features."""
        feats, h1, h2 = cache
        g_w3 = h2.T @ grad_out
        g_b3 = grad_out.sum(axis=0)
        d2 = (grad_out @ self.w3.T) * (1.0 - h2**2)
        g_w2 = h1.T @ d2
        g_b2 = d2.sum(axis=0)
        d1 = (d2 @ self.w2.T) * (1.0 - h1**2)
        g_w1 = feats.T @ d1
        g_b1 = d1.sum(axis=0)
        g_feats = d1 @ self.w1.T
        return (g_w1, g_b1, g_w2, g_b2, g_w3, g_b3), g_feats

    def predict_and_jacobian(self, x: np.ndarray, t):
        """Predicted noise and its Jacobian d out / d x per sample, from one
        forward pass: shapes ``(n, d)`` and ``(n, d, d)``."""
        return self._infer(x, t, jacobian=True)

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

    def _param_list(self):
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def params_vector(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self._param_list()])

    def set_params_vector(self, vec: np.ndarray):
        i = 0
        for p in self._param_list():
            p[...] = vec[i : i + p.size].reshape(p.shape)
            i += p.size

    def to_json_dict(self) -> dict:
        layers = [
            {"w": self.w1.tolist(), "b": self.b1.tolist()},
            {"w": self.w2.tolist(), "b": self.b2.tolist()},
            {"w": self.w3.tolist(), "b": self.b3.tolist()},
        ]
        meta = {"d": self.d, "hidden": self.hidden, "embed": N_TIME_FEATURES, "t_max": self.t_max}
        return {"layers": layers, "meta": meta}

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MlpDenoiser":
        meta = doc["meta"]
        net = cls(d=meta["d"], t_max=meta["t_max"], hidden=meta["hidden"])
        ws = doc["layers"]
        net.w1 = np.array(ws[0]["w"], dtype=float)
        net.b1 = np.array(ws[0]["b"], dtype=float)
        net.w2 = np.array(ws[1]["w"], dtype=float)
        net.b2 = np.array(ws[1]["b"], dtype=float)
        net.w3 = np.array(ws[2]["w"], dtype=float)
        net.b3 = np.array(ws[2]["b"], dtype=float)
        return net

    @classmethod
    def load(cls, path) -> "MlpDenoiser":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def train_denoiser(data: np.ndarray, schedule: NoiseSchedule, config: TrainConfig):
    """Fit the denoiser by conditional score matching on clean samples.

    Minimizes E || eps - net(sqrt(abar_t) x0 + sqrt(1-abar_t) eps, t) ||^2
    with Adam, time indices uniform over 1..T.  Deterministic given
    ``config.seed`` (init, batch order and noise all derive from it).

    Returns:
        ``(net, losses)`` where ``losses`` is the per-epoch mean loss.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 256:
        raise InputError("need at least 256 training samples, shape (n, d)")
    n, d = data.shape
    rng = np.random.default_rng(config.seed)
    net = MlpDenoiser(d=d, t_max=schedule.steps, seed=config.seed)

    params = net._param_list()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            x0 = data[idx]
            t = rng.integers(1, schedule.steps + 1, size=idx.size)
            eps = rng.standard_normal(x0.shape)
            abar = schedule.alpha_bars[t][:, None]
            xt = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps

            out, cache = net._forward(net._features(xt, t))
            resid = out - eps
            loss = float(np.mean(resid**2))
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch + 1}")
            grads, _ = net._backward(cache, 2.0 * resid / resid.size)

            step += 1
            corr1 = 1.0 - config.beta1**step
            corr2 = 1.0 - config.beta2**step
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= config.beta1
                mi += (1.0 - config.beta1) * g
                vi *= config.beta2
                vi += (1.0 - config.beta2) * g**2
                p -= config.learning_rate * (mi / corr1) / (np.sqrt(vi / corr2) + config.adam_eps)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return net, losses


def backprop_gradcheck(net: MlpDenoiser, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Checks parameter gradients of a random linear functional of the output
    and input Jacobian-vector products, on a small fixed random batch.
    """
    rng = np.random.default_rng(1234)
    x = rng.standard_normal((3, net.d))
    t = rng.integers(1, net.t_max + 1, size=3)
    u = rng.standard_normal((3, net.d))

    def scalar() -> float:
        return float(np.sum(u * net.predict(x, t)))

    out, cache = net._forward(net._features(x, t))
    grads, _ = net._backward(cache, u)
    analytic = np.concatenate([g.ravel() for g in grads])

    theta = net.params_vector()
    fd = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        net.set_params_vector(theta)
        hi = scalar()
        theta[i] = orig - step
        net.set_params_vector(theta)
        lo = scalar()
        theta[i] = orig
        fd[i] = (hi - lo) / (2.0 * step)
    net.set_params_vector(theta)

    worst = _max_rel_err(analytic, fd)

    vvec = rng.standard_normal((3, net.d))
    _, jac = net.predict_and_jacobian(x, t)
    jvp = np.einsum("nde,ne->nd", jac, vvec)
    fd_jvp = (net.predict(x + step * vvec, t) - net.predict(x - step * vvec, t)) / (2.0 * step)
    return max(worst, _max_rel_err(jvp.ravel(), fd_jvp.ravel()))


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


class NetScoreProvider:
    """Marginal score from a trained epsilon-prediction net.

    score(x, t) = -net(x, t) / sqrt(1 - abar_t); the Jacobian comes from the
    network's exact input Jacobian.  Valid for t >= 1.
    """

    def __init__(self, net: MlpDenoiser, schedule: NoiseSchedule):
        if net.t_max != schedule.steps:
            raise InputError("network was trained with a different step count")
        self.net = net
        self.schedule = schedule
        self.dim = net.d

    def _scale(self, t: int) -> float:
        if t < 1:
            raise InputError("learned score undefined at t=0")
        return -1.0 / np.sqrt(1.0 - self.schedule.alpha_bar(t))

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        return self._scale(t) * self.net.predict(x, t)

    def score_jacobian(self, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        scale = self._scale(t)
        out, jac = self.net.predict_and_jacobian(x, t)
        return scale * out, scale * jac
