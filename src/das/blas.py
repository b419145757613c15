"""Matrix products on particle rows whose rows do not depend on the call size.

Pooled sweeps stack their particles into one provider call and must reproduce
a lone sweep bit for bit, so a row's result may not depend on how many rows
share the call.  BLAS does not promise that: it computes ``a @ b`` in tiles of
rows, and the kernel it picks (a single row goes to gemv; small or partial
tiles, and some transposed operands, take other kernels) can accumulate in
another order, so one row may round differently in calls of different sizes.

The rule is: the same gemm shapes in every call.  A provider pads its rows
with :func:`pad_rows` to a whole number of fixed-size blocks and multiplies
one block at a time, so every product has the same shape whatever the call
size, and drops the padding from the result.  The MLP denoiser does this
(:mod:`das.scorenet`).

Padding to whole tiles of ``ROW_TILE`` rows, one product per call, is a weaker
form that the mixture provider still uses: it keeps a row off gemv and off a
partial tile, and the mixture's two products gave equal rows at every
multiple of 8 up to 4,096 rows (OpenBLAS 0.3.31, Haswell kernels).  It is not
enough in general.  In the MLP input Jacobian the right operands are
transposed weights: there a row of a product with ``w2^T`` differed by one ulp
between products of 8, 16 and 24+ rows, and a row of a product with the
narrow ``w1[:d]^T`` at 50-75 of the 128 multiples of 8 up to 1,024 rows.  A
Jacobian stacked into one product per call, padded to multiples of 8, made
pooled sweeps differ from lone ones by one ulp (8.9e-16) in a final
log-weight.
"""

from __future__ import annotations

import numpy as np

ROW_TILE = 8


def pad_rows(a: np.ndarray, multiple: int) -> np.ndarray:
    """``a`` with zero rows appended up to a multiple of ``multiple`` rows."""
    pad = -a.shape[0] % multiple
    if pad == 0:
        return a
    return np.concatenate([a, np.zeros((pad,) + a.shape[1:])])
