"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own code, around calls into the
``das`` modules: proxies that satisfy the ``ScoreProvider`` and
``RewardModel`` protocols, and wrappers swapped into ``das.smc`` for the
duration of a traced run.  Nothing inside ``src/das`` is changed, so a traced
set draws exactly the same numbers as an untraced one.

A span has a name, a start, an end, a parent and the set it belongs to (-1 for
set-up).  The benchmark is one thread, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from das import smc
from das.diffusion import GmmScoreProvider

SMC_WRAPPED = ("ess", "resample", "solve_for_delta", "run_das")


class Tracer:
    """Records spans in memory; aggregate them once the run has ended."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.groups: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rows: Counter = Counter()
        self.group = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.groups.append(self.group)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int):
        self.ends[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span '{self.names[idx]}' closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def totals(self, in_sets: bool) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds) over set spans
        (``in_sets``) or set-up spans."""
        dur, own = self.durations(), self.self_times()
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            if (self.groups[i] >= 0) != in_sets:
                continue
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += own[i]
        return {k: (v[0], float(v[1]), float(v[2])) for k, v in out.items()}


class NullTracer:
    """Stands in for a Tracer on untraced runs; records nothing."""

    group = -1

    @contextmanager
    def span(self, name: str):
        yield


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


class TimedProvider:
    """``ScoreProvider`` proxy: one span per call, named after the provider's
    module (``gmm`` for the exact mixture, ``scorenet`` for the MLP)."""

    def __init__(self, inner, tracer: Tracer):
        layer = "gmm" if isinstance(inner, GmmScoreProvider) else "scorenet"
        self.inner = inner
        self.dim = inner.dim
        self._tracer = tracer
        self._score = f"{layer}.score"
        self._jacobian = f"{layer}.score_jacobian"

    def score(self, x, t):
        idx = self._tracer.begin(self._score)
        try:
            return self.inner.score(x, t)
        finally:
            self._tracer.end(idx)
            self._tracer.rows[self._score] += len(x)

    def score_jacobian(self, x, t):
        idx = self._tracer.begin(self._jacobian)
        try:
            return self.inner.score_jacobian(x, t)
        finally:
            self._tracer.end(idx)
            self._tracer.rows[self._jacobian] += len(x)


class TimedReward:
    """``RewardModel`` proxy: one span per ``value`` or ``gradient`` call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.value = _timed(tracer, "rewards.value", inner.value)
        self.gradient = _timed(tracer, "rewards.gradient", inner.gradient)


@contextmanager
def traced_smc(tracer: Tracer):
    """Swap timed wrappers into ``das.smc`` (``ess``, ``resample``,
    ``solve_for_delta``, ``run_das``) and put the originals back on exit.

    The run loop looks these names up in the module at call time, so the
    wrappers see every call it makes.  ``run_das`` is recorded as ``smc.run``
    and ``resample`` as ``smc.resample.<scheme>``.
    """
    originals = {name: getattr(smc, name) for name in SMC_WRAPPED}
    resample = originals["resample"]

    def timed_resample(log_weights, scheme, rng):
        idx = tracer.begin(f"smc.resample.{scheme}")
        try:
            return resample(log_weights, scheme, rng)
        finally:
            tracer.end(idx)

    smc.ess = _timed(tracer, "smc.ess", originals["ess"])
    smc.solve_for_delta = _timed(tracer, "smc.solve_for_delta", originals["solve_for_delta"])
    smc.run_das = _timed(tracer, "smc.run", originals["run_das"])
    smc.resample = timed_resample
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(smc, name, fn)
