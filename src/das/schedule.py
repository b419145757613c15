"""Discrete DDPM noise schedule: betas, cumulative signal levels, reverse stds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_range


@dataclass(frozen=True)
class NoiseSchedule:
    """Beta schedule plus derived quantities, indexed by time t = 0..T.

    ``betas[t-1]`` and ``sigmas[t-1]`` belong to the transition t -> t-1;
    ``alpha_bars[t]`` is the cumulative product with ``alpha_bars[0] = 1``.

    The reverse-kernel variance is the DDPM posterior variance
    beta_tilde_t = beta_t (1 - abar_{t-1}) / (1 - abar_t), which is exactly 0
    at t=1: the final denoising step is noiseless by construction.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)
    sigmas: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        if betas.ndim != 1 or betas.size < 1:
            raise InputError("betas must be a non-empty 1D sequence")
        if not np.all((betas > 0) & (betas < 1)):
            raise InputError("betas must lie strictly in (0, 1)")
        abars = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        post_var = betas * (1.0 - abars[:-1]) / (1.0 - abars[1:])
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", abars)
        object.__setattr__(self, "sigmas", np.sqrt(post_var))

    @classmethod
    def linear(cls, steps: int = 100, beta_start: float = 1e-4, beta_end: float = 0.02):
        """Linear beta ramp; the default toy schedule is 100 steps, 1e-4 to 0.02."""
        check_range("steps", steps, 1, count=True)
        return cls(betas=np.linspace(beta_start, beta_end, steps))

    @property
    def steps(self) -> int:
        return self.betas.size

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def sigma(self, t: int) -> float:
        self._check_t(t)
        return float(self.sigmas[t - 1])

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.steps:
            raise InputError(f"t={t} outside [0, {self.steps}]")
        return float(self.alpha_bars[t])

    def _check_t(self, t: int):
        if not 1 <= t <= self.steps:
            raise InputError(f"t={t} outside [1, {self.steps}]")
