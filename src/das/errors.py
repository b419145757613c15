"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-range input (dimension mismatch, bad time index, ...)."""


class DegenerateTargetError(ValueError):
    """A tilted target is no longer normalizable (alpha too small for the reward curvature)."""


class DegenerateEnsembleError(RuntimeError):
    """Every particle weight collapsed to zero, or a weight or denoised reward is not finite."""


class GuidanceExplosionError(RuntimeError):
    """Non-finite guidance gradient during sampling."""

    def __init__(self, t: int, grad_norm: float):
        self.t = t
        self.grad_norm = grad_norm
        super().__init__(f"non-finite guidance gradient at t={t} (|grad|={grad_norm})")


class TrainingError(RuntimeError):
    """Training diverged or was misconfigured."""


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, unparseable file, missing suite)."""
