"""Matrix products on particle rows whose rows do not depend on the call size.

Pooled sweeps stack their particles into one provider call and must reproduce
a lone sweep bit for bit, so a row's result may not depend on how many rows
share the call.  BLAS does not promise that: it computes ``a @ b`` in tiles of
rows, and the kernel it picks (a single row goes to gemv; small or partial
tiles, and some transposed operands, take other kernels) can accumulate in
another order, so one row may round differently in calls of different sizes.
Padding to whole tiles is not enough either: with transposed weights in the
MLP input Jacobian, OpenBLAS 0.3.31 (Haswell kernels) rounded a row of a
product with ``w2^T`` differently in products of 8, 16 and 24+ rows.

The rule is: the same gemm shapes in every call.  A provider pads its rows
with :func:`pad_rows` to a whole number of fixed-size blocks and multiplies
one block at a time, so every product has the same shape whatever the call
size, and drops the padding from the result.  The MLP denoiser does this
(:mod:`das.scorenet`).  The mixture provider makes no BLAS call at all
(:mod:`das.gmm`), and neither do the quadratic rewards (:mod:`das.rewards`).

Fixed shapes do not make a transposed view and a contiguous copy of the same
operand round alike; that was measured, shape by shape, with OpenBLAS 0.3.31
(Haswell kernels).  In the MLP input Jacobian a copy of ``w2^T`` gives the
view's bits in the ``(16 d, 64) @ (64, 64)`` gemms for d = 2 to 8 (the
suites run d = 2 and 3), but not at d = 1, and a copy of ``w1[:d]^T``
differs from the view at d >= 5, so the kernel copies ``w2^T`` only.  In
training, a copied ``h2^T`` in ``h2^T @ grad_out`` rounds differently from
the view, so :class:`das.scorenet.Backprop` copies no operand.
"""

from __future__ import annotations

import numpy as np


def pad_rows(a: np.ndarray, multiple: int) -> np.ndarray:
    """``a`` with zero rows appended up to a multiple of ``multiple`` rows."""
    pad = -a.shape[0] % multiple
    if pad == 0:
        return a
    return np.concatenate([a, np.zeros((pad,) + a.shape[1:])])
