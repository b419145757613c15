"""Small noise-prediction MLP trained by denoising score matching.

Forward and backward passes are written out by hand so that input gradients
are available exactly -- guidance differentiates through the network -- and
so the backward pass can be finite-difference checked.  The sampler's
inference runs in float32 and everything else in float64 (see "Precision"
below).

Architecture: [x, t/T, sin(pi t/T), cos(pi t/T)] -> 64 tanh -> 64 tanh -> d.
tanh keeps the Jacobian smooth everywhere.  The three time features of the
integer steps 0..T are one ``(T + 1, 3)`` table per network
(:func:`time_features`), which inference and training both read.

Inference (:meth:`MlpDenoiser.predict`, :meth:`MlpDenoiser.predict_and_pullback`
and :class:`NetScoreProvider`) is one blocked kernel, in float64 or float32,
built so that a row's result does not depend on how many rows share the
call: pooled sweeps stack their particles into one call and must reproduce
lone sweeps bit for bit.  BLAS does not promise that on its
own.  It computes ``a @ b`` in tiles of rows, and the kernel it picks (a single
row goes to gemv; small or partial tiles, and some transposed operands, take
other kernels) can accumulate in another order, so one row may round
differently in calls of different sizes.  Padding to whole tiles is not enough
either: with transposed weights, OpenBLAS 0.3.31 (SkylakeX kernels) rounded a
row of a product with ``w2^T`` differently in products of 8, 16 and 24+ rows.
The rule is: the same gemm shapes in every call.  The feature rows are padded
with :func:`pad_rows` to whole blocks of ``BLOCK`` rows, and every matrix
product multiplies one block: its left operand has ``BLOCK`` rows whatever
the call size, and the padding is dropped from the result.  (The mixture
provider, :mod:`das.gmm`, and the quadratic rewards, :mod:`das.rewards`, make
no BLAS call at all.)

The rule needs every row position of a block to round alike, which BLAS
does not promise either.  In float64 every kernel set of OpenBLAS 0.3.31
tried does (SkylakeX, Haswell, Sandybridge, Nehalem, Katmai).  In float32
all but Haswell do: its sgemm, which also serves Zen CPUs, rounds rows 6 to
11 of every 12 (and 60 to 63) of a 64-row product differently from row 0
once the product has 8 or more terms.  On that kernel set a row of the
float32 provider depends on its place in its block, so pooled MLP sweeps
do not reproduce lone ones bit for bit, and the row-independence tests of
the provider fail there.

The forward loop walks ``GROUP`` blocks at a time: numpy runs a stacked
``(blocks, BLOCK, i) @ (i, o)`` product as one gemm per block, and each
OpenBLAS call has a fixed cost, so larger blocks make fewer calls.  64-row
blocks in 512-row passes make a quarter of the gemm calls of 16-row blocks
and give the same bytes.  They were chosen from a sweep on a 2-vCPU Xeon
(OpenBLAS 0.3.31, SkylakeX kernels, one BLAS thread).  Every candidate gave
``predict`` and the pullback the same bytes as ``(16, 8)`` in 275 cases (5
nets, 2 of them trained; 1 to 4096 rows; 10 steps and per-row t), except
256-row blocks: the pullback of a d = 5 net differed in nearly every row
(relative differences up to 3e-12).  "Step" is one step's MLP work at 4096
rows (predict, forward with slopes, pullback) with the trained net3d-wide
net, median of 300 interleaved iterations.  "Sampler" is the time of the
net3d-wide sweep (4096 particles) over its time with 16-row blocks, median
of 20 interleaved rounds:

    BLOCK  GROUP  rows/pass  bytes   step (ms)  sampler
       16      8        128  ref        9.76     1.000
       16     16        256  same       9.12     0.939
       16     32        512  same       8.84     0.932
       16     64       1024  same       9.12     0.973
       32      8        256  same       9.02     0.949
       32     16        512  same       8.60     0.895
       32     32       1024  same       8.99     0.970
       64      4        256  same       8.79     0.987
       64      8        512  same       8.60     0.911
       64     16       1024  same       8.86     0.911
      128      2        256  same       8.87     0.913
      128      4        512  same       8.55     0.899
      128      8       1024  same       8.81     0.942
      256   1..4   256-1024  differ       --        --

Re-run over 30 rounds, (32, 16), (64, 8) and (128, 4) read 0.842, 0.856 and
0.837, and (64, 4) 0.873; over 40 more, (32, 16) read 0.864 and (64, 8)
0.848.  512-row passes lead, and the three blocks tie within the rounds'
spread; 64 rows make half the gemm calls of 32 and pad short calls half as
much as 128.

The sweep was re-run for the float32 kernel that the sampler runs (5 nets,
2 of them trained; 1 to 4096 rows around every block and pass boundary; 4
steps and per-row t; 275 cases of forward pass, forward pass with slopes
and pullback).  Every candidate gave the bytes of ``(16, 8)``, except
256-row blocks, which moved all 55 cases of the d = 5 net.  One step of the
float32 kernel at 4096 rows (median of 200 interleaved iterations) took
3.49 ms at ``(16, 8)``, 2.54 ms at ``(64, 8)``, and 2.45 to 2.61 ms at
the other candidates with passes of 512 rows or more, so ``(64, 8)`` stays.

The cost is padding.  A call pads to whole blocks, so a 16-row ``predict``
takes 90 us against 48 us with 16-row blocks (63 us with 32 rows, 133 us
with 128; float64).  Pooled sweeps and the suites' baselines call the MLP with
hundreds of rows, net3d-wide with 4096.  The only short MLP calls are
perfbench's 16-particle warm-up sweep and the tests, above all the gradient
checks with their thousands of 3-row calls: with 128-row blocks they and
the row-independence tests took 3.7 s more in one run, some 5 % of the fast
test loop.  The hidden activations h1 and h2 live in two group buffers of
at most ``GROUP`` blocks, allocated once per call and reused through
``out=`` (a short last group uses their leading blocks).  A whole group's
buffer, ``(8, 64, 64)``, is 256 KiB in float64 (128 KiB in float32), at or
over glibc's 128 KiB default mmap threshold.  In a process that has freed no larger mapped block, each
4096-row ``predict`` maps both afresh (168 page faults a call).  glibc
raises the threshold to the size of a mapped block when it is freed, so
once a forward pass with slopes (4 MiB in float64, 2 MiB in float32) has
run, as it does at every guided step, the buffers come from the heap
without a fault.

Guidance needs v^T d out / d x for one vector v per row, never the ``(d, d)``
Jacobian.  :meth:`MlpDenoiser.predict_and_pullback` keeps the tanh
derivatives s1 = 1 - h1^2 and s2 = 1 - h2^2 of every row and returns a
pullback that runs one blocked backward pass in the same groups:
``v @ w3^T``, times s2, ``@ w2^T``, times s1, ``@ w1[:d]^T`` (only the d
input columns), each a ``BLOCK``-row gemm.  That is one
``(BLOCK, H) @ (H, H)`` gemm per block where forming the Jacobian took a
``(d * BLOCK, H) @ (H, H)`` one, so the cost of guidance does not grow with
d.  ``w2^T`` is copied once per pullback: the gemm runs faster on a
contiguous operand than on the transposed view of ``theta`` (the ``w2^T``
products of 4096 rows took 0.71 ms against 1.12 ms, one BLAS thread), and a
per-call copy cannot go stale after training or :meth:`MlpDenoiser.load`.
``w3^T`` and ``w1[:d]^T`` stay views.  The pullback's bits are pinned by
``tests/data/pullback_golden.npz``.

The slopes are one ``(2, rows, H)`` array, 4 MiB at 4096 rows in float64,
not two arrays of 2 MiB.  numpy advises the kernel to back arrays of 4 MiB
or more with transparent huge pages.  On a Linux VM that honours the advice
(2-vCPU Xeon), faulting in the fresh block took 0.2 ms, against 2.2 ms for
two 2 MiB arrays.

Precision.  The sampler's inference runs in float32.  :class:`NetScoreProvider`
runs this kernel with ``dtype=np.float32``: it casts the weights of
``theta``, the features and the pullback vectors to float32 per call, runs
the forward pass, the slopes and the pullback in float32, and casts the
score and the pullback back to float64.  On one BLAS thread of a 2-vCPU
Xeon (SkylakeX kernels), a 4096 x 64 x 64 product in 64-row blocks took
0.31 ms in float32 against 0.77 ms in float64, and numpy's tanh 0.35 ns
per element against 1.65 ns (medians of 300 calls).  Everything else stays
float64:

- training (:class:`Backprop`, Adam, ``theta``), whose steps a float32
  gradient would change;
- the sampler's positions, r_hat, gradients, reverse means and log-weights:
  float32 ends at the provider's boundary;
- :meth:`MlpDenoiser.predict` and :meth:`MlpDenoiser.predict_and_pullback`.
  They are the reference that the finite-difference checks, the gradient
  checks and the inference golden files test: central differences at
  h = 1e-5 or 1e-6 cannot resolve a function rounded at 6e-8.

The SMC weights stay exact.  Each point is evaluated once, and that one
evaluation gives r_hat, the mean of the reverse kernel (the target's
transition density) and the shift of the proposal; the weight is computed in
float64 from those same values.  So the float32 network is one more score
model: the sampler targets the reward tilt of the chain it defines, with
importance weights that are exact for it, as for any proposal that depends
only on x_t when target and proposal share the score (Wu et al. 2023, TDS).
It differs from the float64 net by about 2e-7 of the score, against a
trained net's own score error of about 0.09.

Rounding bound.  The tests hold the float32 provider to the float64
reference on the same net, entry by entry, by a bound derived from the layer
widths and the unit roundoff u = eps32 / 2 = 2^-24 (plus eps64 / 2, so that
it covers the reference's own rounding), to first order in u (products of
two rounding errors are left out).  A product of k terms whose operands were
rounded to float32, plus a bias, is within gamma_{k+3} (|z| |W| + |b|) of the
exact one, with gamma_k = k u / (1 - k u): each term carries at most two
operand roundings, one multiplication and k additions, whatever order the
kernel sums in (Higham, *Accuracy and Stability of Numerical Algorithms*,
section 3.1).  Without a bias it is gamma_{k+2}.  numpy's float32 tanh is
within 2u |tanh| of tanh (at most 0.91 eps32 over 236 million arguments in
[-20, 20]), and tanh is 1-Lipschitz.  With the magnitudes of the float64 forward pass (z the
n_in = d + 3 features, H = 64 the hidden width), the hidden layers and the
output are within::

    e_h1  = gamma_{n_in+3} (|z| |W1| + |b1|) + 2u |h1|
    e_h2  = gamma_{H+3} (|h1| |W2| + |b2|) + e_h1 |W2| + 2u |h2|
    e_out = gamma_{H+3} (|h2| |W3| + |b3|) + e_h2 |W3|

The slopes s = 1 - h^2 are within e_s = 2 |h| e_h + u (h^2 + |s|).  The
pullback, p3 = v W3^T, q2 = p3 * s2, p2 = q2 W2^T, q1 = p2 * s1 and
p1 = q1 W1[:d]^T, is within::

    e_p3 = gamma_{d+2} |v| |W3^T|
    e_q2 = e_p3 |s2| + |p3| e_s2 + u |p3 s2|
    e_p2 = gamma_{H+2} |q2| |W2^T| + e_q2 |W2^T|
    e_q1 = e_p2 |s1| + |p2| e_s1 + u |p2 s1|
    e_p1 = gamma_{H+2} |q1| |W1[:d]^T| + e_q1 |W1[:d]^T|

The provider scales these by its |scale| and by |a scale| / b; the gradient
of r_hat adds the pullback of the error of grad r(x0_hat), since x0_hat
moves by a / b times the score's error.  The float64 arithmetic after the
cast adds a few float64 roundings of each result.  On a fresh and a trained
d = 3 net at 4096 rows and t in {1, 2, 50, 100}, the float32 errors reach
0.002 to 0.003 of the score bound and 0.0007 to 0.0011 of the pullback
bound: the bound adds the rounding errors' sizes and grows with k, where
the errors mostly cancel.  With one layer computed in float16
(u = 2^-11) instead, the errors exceed the bound, by up to 2 times.

Training (:func:`train_denoiser`) runs one forward/backward kernel,
:class:`Backprop`, over whole batches.  The parameters live in one flat
vector, ``theta``, and ``w1 ... b3`` are views into it.  The gradients are
written into a flat vector with the same layout, so an Adam step is a few
in-place operations on flat vectors.  The activations, the tanh derivative
1 - h^2 and the gradients go into buffers allocated once per batch size (a
(256, 64) activation is 128 KiB, right at glibc's default mmap threshold).
Every gemm keeps the shape, operand layout and summation order of a plain
whole-batch forward/backward pass, so trained nets do not depend on this
buffering.  It copies no operand: a copied ``h2^T`` in ``h2^T @ grad_out``
rounds differently from the view.  The tests check this kernel, and the
inference pullback, against central finite differences of
:meth:`MlpDenoiser.predict`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TrainingError, check_range
from .schedule import NoiseSchedule

HIDDEN = 64
N_TIME_FEATURES = 3
BLOCK = 64  # rows of every inference gemm
GROUP = 8  # blocks per pass of the inference loop
MIN_TRAIN_SAMPLES = 256


def pad_rows(a: np.ndarray, multiple: int) -> np.ndarray:
    """``a`` with zero rows appended up to a multiple of ``multiple`` rows."""
    pad = -a.shape[0] % multiple
    if pad == 0:
        return a
    return np.concatenate([a, np.zeros((pad,) + a.shape[1:])])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 1000
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        check_range("learning_rate", self.learning_rate, 0, strict=True)
        check_range("epochs", self.epochs, 1, count=True)
        check_range("batch_size", self.batch_size, 1, count=True)
        check_range("seed", self.seed, 0, count=True)


def time_features(t_max: int) -> np.ndarray:
    """The ``(t_max + 1, 3)`` table of time features [t/T, sin(pi t/T),
    cos(pi t/T)] for the integer steps t = 0..T."""
    tt = np.arange(t_max + 1, dtype=float)
    phase = np.pi * tt / t_max
    return np.stack([tt / t_max, np.sin(phase), np.cos(phase)], axis=1)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat`` with the given shapes."""
    views, i = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[i : i + size].reshape(shape))
        i += size
    return views


class MlpDenoiser:
    """Two-hidden-layer epsilon-prediction network with explicit parameters.

    The parameters live in the flat vector ``theta``; ``w1, b1, w2, b2, w3,
    b3`` are views into it, in that order.
    """

    def __init__(self, d: int, t_max: int, hidden: int = HIDDEN, seed: int = 0):
        for name, value in (("d", d), ("t_max", t_max), ("hidden", hidden)):
            check_range(name, value, 1, count=True)
        check_range("seed", seed, 0, count=True)
        self.d = d
        self.t_max = t_max
        self.hidden = hidden
        n_in = d + N_TIME_FEATURES
        self.param_shapes = [(n_in, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, d), (d,)]
        self.theta = np.zeros(sum(int(np.prod(shape)) for shape in self.param_shapes))
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = _views(self.theta, self.param_shapes)
        rng = np.random.default_rng(seed)
        self.w1[...] = rng.standard_normal((n_in, hidden)) / np.sqrt(n_in)
        self.w2[...] = rng.standard_normal((hidden, hidden)) / np.sqrt(hidden)
        self.w3[...] = rng.standard_normal((hidden, d)) / np.sqrt(hidden)
        self.time_table = time_features(t_max)

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _time_rows(self, t, n: int) -> np.ndarray:
        """Time-feature rows of the integer step ``t``: one step, or one per
        row of ``n`` rows."""
        if isinstance(t, (int, np.integer)):
            if not 0 <= t <= self.t_max:
                raise InputError(f"t={t} outside [0, {self.t_max}]")
            return self.time_table[t]
        t = np.asarray(t)
        if t.shape not in ((), (n,)):
            raise InputError(f"t has shape {t.shape}, expected () or ({n},) for {n} rows")
        if t.dtype.kind not in "iu" or np.any((t < 0) | (t > self.t_max)):
            raise InputError(f"t must be integer steps in [0, {self.t_max}]")
        return self.time_table[t]

    def _features(self, x: np.ndarray, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.d:
            raise InputError(f"points have shape {x.shape}, expected (n, {self.d})")
        time = np.broadcast_to(self._time_rows(t, x.shape[0]), (x.shape[0], N_TIME_FEATURES))
        return np.concatenate([x, time], axis=1)

    def _infer(self, x: np.ndarray, t, keep_slopes: bool, dtype=np.float64):
        """Blocked forward pass on particle rows, computed in ``dtype`` (see
        the module docstring).  Returns ``(out, slopes)`` in ``dtype``: with
        ``keep_slopes``, the tanh derivatives 1 - h1^2 and 1 - h2^2 of every
        padded row, one ``(2, rows, H)`` array that :meth:`_pullback` reads;
        else None.  In float64 the weights are views of ``theta``; in another
        dtype they are cast per call."""
        feats = self._features(x, t)
        n = feats.shape[0]
        feats = pad_rows(feats, BLOCK).astype(dtype, copy=False)
        rows, d, hidden = feats.shape[0], self.d, self.hidden
        params = (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)
        w1, b1, w2, b2, w3, b3 = (p.astype(dtype, copy=False) for p in params)
        out = np.empty((rows, d), dtype)
        group = min(GROUP, rows // BLOCK)
        h1 = np.empty((group, BLOCK, hidden), dtype)
        h2 = np.empty((group, BLOCK, hidden), dtype)
        slopes = np.empty((2, rows, hidden), dtype) if keep_slopes else None
        for lo in range(0, rows, BLOCK * GROUP):
            hi = min(lo + BLOCK * GROUP, rows)
            k = (hi - lo) // BLOCK
            g1, g2 = h1[:k], h2[:k]
            np.matmul(feats[lo:hi].reshape(k, BLOCK, -1), w1, out=g1)
            g1 += b1
            np.tanh(g1, out=g1)
            np.matmul(g1, w2, out=g2)
            g2 += b2
            np.tanh(g2, out=g2)
            np.matmul(g2, w3, out=out[lo:hi].reshape(k, BLOCK, d))
            if keep_slopes:
                for g, s in zip((g1, g2), slopes):
                    sk = s[lo:hi].reshape(k, BLOCK, hidden)
                    np.multiply(g, g, out=sk)
                    np.subtract(1.0, sk, out=sk)
        out += b3
        return out[:n], slopes

    def _pullback(self, slopes, n: int, v: np.ndarray) -> np.ndarray:
        """v^T d out / d x for the ``n`` rows of one :meth:`_infer` call,
        from its slopes: one blocked backward pass in the slopes' dtype (see
        the module docstring)."""
        s1, s2 = slopes
        dtype = slopes.dtype
        d, hidden = self.d, self.hidden
        v = np.asarray(v, dtype=float)
        if v.shape != (n, d):
            raise InputError(f"pullback vectors have shape {v.shape}, expected ({n}, {d})")
        v = pad_rows(v, BLOCK).astype(dtype, copy=False)
        rows = v.shape[0]
        u = np.empty((rows, d), dtype)
        group = min(GROUP, rows // BLOCK)
        a = np.empty((group, BLOCK, hidden), dtype)
        b = np.empty((group, BLOCK, hidden), dtype)
        w3t = self.w3.T.astype(dtype, copy=False)
        w2t = np.ascontiguousarray(self.w2.T, dtype=dtype)
        w1t = self.w1[:d].T.astype(dtype, copy=False)
        for lo in range(0, rows, BLOCK * GROUP):
            hi = min(lo + BLOCK * GROUP, rows)
            k = (hi - lo) // BLOCK
            ak, bk = a[:k], b[:k]
            np.matmul(v[lo:hi].reshape(k, BLOCK, d), w3t, out=ak)
            ak *= s2[lo:hi].reshape(k, BLOCK, hidden)
            np.matmul(ak, w2t, out=bk)
            bk *= s1[lo:hi].reshape(k, BLOCK, hidden)
            np.matmul(bk, w1t, out=u[lo:hi].reshape(k, BLOCK, d))
        return u[:n]

    def predict(self, x: np.ndarray, t) -> np.ndarray:
        """Predicted noise, shape ``(n, d)``, at integer step(s) ``t``."""
        return self._infer(x, t, keep_slopes=False)[0]

    def predict_and_pullback(self, x: np.ndarray, t):
        """Predicted noise, shape ``(n, d)``, from one forward pass, and its
        pullback: a function that maps ``v``, shape ``(n, d)``, to
        v^T d out / d x per row (one backward pass per call)."""
        out, slopes = self._infer(x, t, keep_slopes=True)
        return out, lambda v: self._pullback(slopes, out.shape[0], v)

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

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
        l1, l2, l3 = doc["layers"]
        values = (l1["w"], l1["b"], l2["w"], l2["b"], l3["w"], l3["b"])
        for p, v in zip((net.w1, net.b1, net.w2, net.b2, net.w3, net.b3), values):
            p[...] = v
        return net

    @classmethod
    def load(cls, path) -> "MlpDenoiser":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


class Backprop:
    """The training kernel: forward and backward pass of ``net`` over a batch
    of ``rows`` rows, in buffers allocated once.

    Fill :attr:`feats` (the network inputs, ``(rows, d + 3)``), call
    :meth:`forward`, then :meth:`backward` with d loss / d out.  The parameter
    gradients land in the flat :attr:`grad`, laid out as ``net.theta``;
    ``g_w1 ... g_b3`` are views into it.
    """

    def __init__(self, net: MlpDenoiser, rows: int):
        d, hidden = net.d, net.hidden
        self.net = net
        self.feats = np.empty((rows, d + N_TIME_FEATURES))
        self.h1 = np.empty((rows, hidden))
        self.h2 = np.empty((rows, hidden))
        self.out = np.empty((rows, d))
        self.d1 = np.empty((rows, hidden))
        self.d2 = np.empty((rows, hidden))
        self.slope = np.empty((rows, hidden))  # 1 - h^2 of the layer being differentiated
        self.grad = np.empty_like(net.theta)
        self.g_w1, self.g_b1, self.g_w2, self.g_b2, self.g_w3, self.g_b3 = _views(self.grad, net.param_shapes)

    def forward(self) -> np.ndarray:
        """Network output for :attr:`feats`, shape ``(rows, d)``; keeps the
        hidden activations for :meth:`backward`."""
        net, h1, h2 = self.net, self.h1, self.h2
        np.matmul(self.feats, net.w1, out=h1)
        h1 += net.b1
        np.tanh(h1, out=h1)
        np.matmul(h1, net.w2, out=h2)
        h2 += net.b2
        np.tanh(h2, out=h2)
        np.matmul(h2, net.w3, out=self.out)
        self.out += net.b3
        return self.out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * out) wrt the parameters, written into
        :attr:`grad` (and returned); ``grad_out`` may be :attr:`out`."""
        net, h1, h2, d1, d2, s = self.net, self.h1, self.h2, self.d1, self.d2, self.slope
        np.matmul(h2.T, grad_out, out=self.g_w3)
        np.sum(grad_out, axis=0, out=self.g_b3)
        np.matmul(grad_out, net.w3.T, out=d2)
        np.multiply(h2, h2, out=s)
        np.subtract(1.0, s, out=s)
        d2 *= s
        np.matmul(h1.T, d2, out=self.g_w2)
        np.sum(d2, axis=0, out=self.g_b2)
        np.matmul(d2, net.w2.T, out=d1)
        np.multiply(h1, h1, out=s)
        np.subtract(1.0, s, out=s)
        d1 *= s
        np.matmul(self.feats.T, d1, out=self.g_w1)
        np.sum(d1, axis=0, out=self.g_b1)
        return self.grad


def train_denoiser(data: np.ndarray, schedule: NoiseSchedule, config: TrainConfig):
    """Fit the denoiser by conditional score matching on clean samples.

    Minimizes E || eps - net(sqrt(abar_t) x0 + sqrt(1-abar_t) eps, t) ||^2
    with Adam, time indices uniform over 1..T.  Deterministic given
    ``config.seed`` (init, batch order and noise all derive from it).
    Non-finite samples raise :class:`InputError`.  A batch whose loss or
    gradient is not finite raises :class:`TrainingError` before it updates
    the parameters or the Adam moments.

    Returns:
        ``(net, losses)`` where ``losses`` is the per-epoch mean loss.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < MIN_TRAIN_SAMPLES:
        raise InputError(f"need at least {MIN_TRAIN_SAMPLES} training samples, shape (n, d)")
    if not np.isfinite(data).all():
        raise InputError("training samples must be finite")
    n, d = data.shape
    rng = np.random.default_rng(config.seed)
    net = MlpDenoiser(d=d, t_max=schedule.steps, seed=config.seed)
    # elementwise, so gathering from these equals the square root of the gathered abar
    sqrt_abar = np.sqrt(schedule.alpha_bars)
    sqrt_1m_abar = np.sqrt(1.0 - schedule.alpha_bars)
    passes: dict[int, Backprop] = {}  # one per batch size

    beta1, beta2, adam_eps, lr = 0.9, 0.999, 1e-8, config.learning_rate  # Adam's usual constants
    theta = net.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    den = np.empty_like(theta)
    upd = np.empty_like(theta)
    step = 0
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            t = rng.integers(1, schedule.steps + 1, size=idx.size)
            eps = rng.standard_normal((idx.size, d))
            bp = passes.get(idx.size)
            if bp is None:
                bp = passes[idx.size] = Backprop(net, idx.size)
            xt = bp.feats[:, :d]
            np.multiply(sqrt_abar[t][:, None], data[idx], out=xt)
            xt += sqrt_1m_abar[t][:, None] * eps
            bp.feats[:, d:] = net.time_table[t]

            resid = bp.forward()
            resid -= eps
            loss = float(np.mean(resid**2))
            if not math.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch + 1}, batch {n_batches + 1}")
            resid *= 2.0
            resid /= resid.size
            g = bp.backward(resid)
            if not np.isfinite(g).all():
                raise TrainingError(f"gradient not finite at epoch {epoch + 1}, batch {n_batches + 1}")

            # Adam, in place on the flat vectors, in the order
            # theta -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=upd)
            m += upd
            v *= beta2
            np.multiply(g, g, out=den)
            den *= 1.0 - beta2
            v += den
            np.divide(v, corr2, out=den)
            np.sqrt(den, out=den)
            den += adam_eps
            np.divide(m, corr1, out=upd)
            upd *= lr
            upd /= den
            theta -= upd
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    return net, losses


class NetScoreProvider:
    """Marginal score from a trained epsilon-prediction net.

    score(x, t) = -net(x, t) / sqrt(1 - abar_t); the pullback runs one
    backward pass through the network.  The network runs in float32 and the
    score and pullback are returned in float64 (see "Precision" in the
    module docstring; :meth:`MlpDenoiser.predict` is the float64
    reference).  Valid for t >= 1.
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
        scale = self._scale(t)
        out = self.net._infer(x, t, False, np.float32)[0].astype(float)
        out *= scale
        return out

    def score_jacobian(self, x: np.ndarray, t: int):
        scale = self._scale(t)
        out, slopes = self.net._infer(x, t, True, np.float32)
        n = out.shape[0]
        out = out.astype(float)
        out *= scale

        def pullback(v: np.ndarray, a: float, b: float) -> np.ndarray:
            # (v + a scale v^T d net / d x) / b: the score is scale * net
            u = self.net._pullback(slopes, n, v).astype(float)
            u *= a * scale
            u += v
            u /= b
            return u

        return out, pullback
