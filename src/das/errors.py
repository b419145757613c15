"""Exception types shared across the package, and the range check every
library entry point runs on the numbers it takes."""

from __future__ import annotations

import sys

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-range input (dimension mismatch, bad time index, ...)."""


def check_range(name: str, value, low, *, strict: bool = False, count: bool = False) -> None:
    """Raise InputError naming the field ``name`` unless ``value`` is an
    integer (``count``) or a real number, finite, and at least ``low``, or
    above it when ``strict``.  The test fails closed: NaN, the infinities,
    bools, and integers too large for a float are rejected, while numpy
    integers and floats pass."""
    kinds = (int, np.integer) if count else (int, float, np.integer, np.floating)
    # as a Python number: a numpy scalar would cast the bound to its own dtype
    number = value.item() if isinstance(value, np.generic) else value
    if not (isinstance(value, kinds) and not isinstance(value, bool) and abs(number) <= sys.float_info.max
            and (number > low if strict else number >= low)):
        kind = "an integer" if count else "a finite number"
        raise InputError(f"{name} must be {kind} {'>' if strict else '>='} {low}, got {value!r}")


class DegenerateTargetError(ValueError):
    """A tilted target is no longer normalizable (alpha too small for the reward curvature)."""


class DegenerateEnsembleError(RuntimeError):
    """Every particle weight collapsed to zero, or a weight or denoised reward is not finite."""


class GuidanceExplosionError(RuntimeError):
    """Non-finite guidance gradient during sampling.

    ``rows`` are the rows whose gradient holds a NaN or an infinity, as row
    numbers of the sampler's ``(n, d)`` batch; in the SMC engine, row
    ``sweep * N + particle``.  ``grad_norm`` is the largest |entry| that is
    not NaN (inf when an entry is infinite), NaN when every entry is NaN.
    """

    def __init__(self, t: int, rows: list[int], grad_norm: float):
        self.t = t
        self.rows = rows
        self.grad_norm = grad_norm
        super().__init__(f"non-finite guidance gradient at t={t} in rows {rows} (largest non-NaN |grad|={grad_norm})")

    @classmethod
    def check(cls, t: int, grad: np.ndarray, taken_on: np.ndarray | None) -> None:
        """Raise when a row of the gradient is not finite.  The gradient's
        rows are the rows of the batch where the boolean mask ``taken_on`` is
        set, or every row when it is ``None``, and the error names them by
        their row in the batch."""
        if np.isfinite(grad).all():
            return
        rows = np.flatnonzero(~np.isfinite(grad).all(axis=1))
        if taken_on is not None:
            rows = np.flatnonzero(taken_on)[rows]
        size = np.abs(grad[~np.isnan(grad)])
        raise cls(t, rows.tolist(), float(size.max()) if size.size else float("nan"))


class TrainingError(RuntimeError):
    """Training diverged or was misconfigured."""


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, unparseable file, missing suite)."""
