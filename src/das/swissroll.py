"""3D Swiss-roll point cloud used as training data in the 3D experiment."""

from __future__ import annotations

import numpy as np

from .errors import check_range

_THETA_LO = 1.5 * np.pi
_THETA_HI = 4.5 * np.pi
# uniform scale putting the widest turn of the spiral at radius 3
SCALE = 3.0 / _THETA_HI


def make_swiss_roll(n: int, noise: float = 0.0, seed=0) -> np.ndarray:
    """Sample ``n`` points from a 3D Swiss roll scaled to fit in [-3, 3]^3.

    The spiral lives in the (x, z) plane: radius grows linearly with angle
    theta in [1.5 pi, 4.5 pi]; y is the roll height.  Gaussian jitter of
    standard deviation ``noise`` is added per coordinate, then points are
    clipped back into the box.  Deterministic given ``seed``.
    """
    check_range("n", n, 1, count=True)
    check_range("noise", noise, 0)
    rng = np.random.default_rng(seed)
    theta = _THETA_LO + (_THETA_HI - _THETA_LO) * rng.random(n)
    height = 6.0 * rng.random(n) - 3.0
    pts = np.stack(
        [SCALE * theta * np.cos(theta), height, SCALE * theta * np.sin(theta)],
        axis=-1,
    )
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
        pts = np.clip(pts, -3.0, 3.0)
    return pts

