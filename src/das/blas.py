"""Matrix products on particle rows whose rows do not depend on the call size.

BLAS computes ``a @ b`` in tiles of rows.  A call's last, partial tile, and a
single row (which numpy hands to gemv), can accumulate in another order than
a full tile, so one row may round differently in calls of different sizes.
Pooled sweeps stack their particles into one provider call and must reproduce
a lone sweep bit for bit, so providers pad the left operand of such products
to whole tiles with :func:`pad_rows` and drop the padding from the result.
"""

from __future__ import annotations

import numpy as np

ROW_TILE = 8


def pad_rows(a: np.ndarray) -> np.ndarray:
    """``a`` with zero rows appended up to a multiple of ``ROW_TILE`` rows."""
    pad = -a.shape[0] % ROW_TILE
    if pad == 0:
        return a
    return np.concatenate([a, np.zeros((pad,) + a.shape[1:])])
