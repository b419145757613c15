"""Sampler benchmark: one workload, run as a closed loop of sets.

    python3 perfbench/run.py --workload fig1-pooled --seed 0 --seconds 30 --trace 0

One client in one process issues sets back to back, each after the previous
one has finished.  A set is one sample set from the sampler plus its scoring
against the exact oracle.  The run sets up at least ``SETUP_MIN_REPEATS``
times and for at least ``SETUP_MIN_SECONDS``, then issues sets until
``--seconds`` have passed and at least the workload's quality sets are done.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around calls into ``das`` (see
METRICS.md), after running the quality sets untraced too, to measure the
tracing overhead and check that tracing leaves the draws bit-identical.
``--smoke`` shrinks every workload so a run takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metrics are the
gated ones.  The line before it is the full report: every metric with its
unit and sample count (the quality figures too), provenance, and per-set
times, EMDs and digests.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "draws_per_s": "draws/s",
    "set_s_p50": "s",
    "peak_rss_mb": "MB",
}

_PER_SET = {"calls": "calls/set", "s": "s/set", "rows": "rows/set"}
PER_LAYER = {
    **{f"gmm.score.{k}": _PER_SET[k] for k in ("calls", "s", "rows")},
    **{f"gmm.score_jacobian.{k}": _PER_SET[k] for k in ("calls", "s")},
    "gmm.tilt.s": "s",
    "gmm.sample.s": "s",
    **{f"scorenet.score.{k}": _PER_SET[k] for k in ("calls", "s", "rows")},
    **{f"scorenet.score_jacobian.{k}": _PER_SET[k] for k in ("calls", "s")},
    "scorenet.train.s": "s",
    "scorenet.adam_steps": "count",
    "scorenet.adam_step_us": "us",
    **{f"rewards.{f}.{k}": _PER_SET[k] for f in ("value", "gradient") for k in ("calls", "s")},
    "smc.run.calls": "calls/set",
    "smc.run.s": "s/set",
    "smc.self.s": "s/set",
    **{f"smc.{f}.{k}": _PER_SET[k] for f in ("ess", "solve_for_delta", "resample") for k in ("calls", "s")},
    **{f"smc.resample.{scheme}.s": "s/set" for scheme in ("ssp", "systematic", "multinomial")},
    "smc.steps": "steps/set",
    "smc.resample_per_step": "1",
    "smc.ess_min_p50": "1",
    "smc.unique_frac": "1",
    "metrics.emd.calls": "calls/set",
    "metrics.emd.s": "s/set",
    "trace.overhead_s": "s/set",
    "trace.overhead_frac": "1",
    "dominant.share": "1",
}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload at a size that takes seconds")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int, load_avg) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": blas_threads(),
        "load_avg_start": list(load_avg),
        "workload_seed": seed,
    }


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


class SpeedProbe:
    """Times a fixed kernel that calls no ``das`` code.

    The shared box this benchmark runs on changes speed by up to 2x from
    one minute to the next.  Timing metrics are therefore reported in
    *reference seconds*: a wall time multiplied by ``REF_S`` over the probe's
    time measured around it, i.e. the time the work would have taken at the
    speed where the probe takes ``REF_S``.  Raw wall times are in the report.

    Neighbours slow Python-bound and memory-bound work by different amounts,
    so the probe is a small copy of the work its workload does.  ``small``
    is a loop over a six-component mixture's responsibilities for 16 points
    and two ``logsumexp`` calls, as in the 2D sampling loops, where ESS goes
    through scipy.  ``mlp`` is the input Jacobian of a 6-64-64-3 tanh MLP at
    N=4096, as ``scorenet`` computes it, allocating its temporaries as the
    work does.  Each takes about 40 ms.
    """

    REF_S = 0.04

    def __init__(self, kind: str):
        import numpy as np
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        self.np = np
        self.logsumexp = logsumexp
        self.kind = kind
        if kind == "small":
            self.prec = rng.standard_normal((6, 2, 2))
            self.x = rng.standard_normal((16, 2))
            self.logw = rng.standard_normal(16)
        else:
            self.x = rng.standard_normal((4096, 6))
            self.w1 = rng.standard_normal((6, 64)) / 2.0
            self.w2 = rng.standard_normal((64, 64)) / 8.0
            self.w3 = rng.standard_normal((64, 3)) / 8.0
        self()

    @property
    def megabytes(self) -> float:
        """The probe's own share of ``peak_rss_mb``: the buffers it keeps."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, self.np.ndarray)) / 2**20

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        if self.kind == "small":
            for _ in range(250):
                d = self.x[:, None, :] - self.prec[:, 0][None]
                m = np.einsum("nkd,kde,nke->nk", d, self.prec, d)
                e = np.exp(m - m.max(axis=1, keepdims=True))
                e /= e.sum(axis=1, keepdims=True)
                self.logsumexp(self.logw)
                self.logsumexp(2.0 * self.logw)
        else:
            for _ in range(2):
                h1 = np.tanh(self.x @ self.w1)
                h2 = np.tanh(h1 @ self.w2)
                j = self.w3.T[None, :, :] * (1.0 - h2**2)[:, None, :]
                j = (j @ self.w2.T) * (1.0 - h1**2)[:, None, :]
                j @ self.w1.T
        return time.perf_counter() - start

    def scales(self, probes: list[float]) -> list[float]:
        """Factor for the work between consecutive probes."""
        return [2.0 * self.REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def measure(state, seconds: float, probe: SpeedProbe, tracer=None) -> tuple[list, list[float]]:
    """Issue sets back to back until ``seconds`` have passed and the quality
    sets are done, probing the machine's speed before each set and after the
    last.  Returns the sets and each set's speed factor.  Untraced sets keep
    only their figures; traced ones keep their draws and traces for the
    per-layer ratios."""
    from workloads import run_set

    results, probes = [], [probe()]
    start = time.perf_counter()
    while len(results) < state.spec.quality_sets or time.perf_counter() - start < seconds:
        results.append(run_set(state, len(results), tracer))
        probes.append(probe())
        if tracer is None:
            results[-1].release()
    return results, probe.scales(probes)


def end_to_end(spec, setup_times: list[float], setup_scales: list[float], results: list,
               scales: list[float]) -> dict:
    """name -> (value, unit, sample count).  Times are in reference seconds
    (see SpeedProbe); the ``raw_`` entries are the same in wall seconds."""
    quality = [r for r in results[: spec.quality_sets] if not r.failed]
    errors = [e for r in quality for e in r.errors]
    passed = [(r, f) for r, f in zip(results, scales) if not r.failed]
    n = len(results)
    nan = float("nan")
    return {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s",
                    len(setup_times)),
        "draws_per_s": (statistics.median(spec.draws / (r.sample_s * f) for r, f in passed) if passed else nan,
                        "draws/s", len(passed)),
        "set_s_p50": (statistics.median(r.wall_s * f for r, f in zip(results, scales)), "s", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        # Reported, not in the result line; see METRICS.md for why.
        "emd_mean": (statistics.fmean(r.emd for r in quality) if quality else nan, "1", len(quality)),
        "emd_outlier_frac": (sum(r.outlier for r in quality) / len(quality) if quality else nan, "1",
                             len(quality)),
        "rmse_reward": (math.sqrt(statistics.fmean(e * e for e in errors)) if errors else nan, "1",
                        len(errors)),
        "failed_frac": (sum(r.failed for r in results) / n, "1", n),
        "raw_setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "raw_draws_per_s": (statistics.median(spec.draws / r.sample_s for r, _ in passed) if passed else nan,
                            "draws/s", len(passed)),
        "raw_set_s_p50": (statistics.median(r.wall_s for r in results), "s", n),
        "speed_factor_p50": (statistics.median(scales), "1", n),
    }


def per_layer(state, tracer, traced: list, untraced: list, traced_scales: list[float],
              untraced_scales: list[float]) -> dict:
    """name -> (value, unit, sample count); per-set figures are means over
    the traced sets, set-up figures come from one traced set-up."""
    spec = state.spec
    n = len(traced)
    sets = tracer.totals(in_sets=True)
    setup = tracer.totals(in_sets=False)
    zero = (0, 0.0, 0.0)
    values = {}
    for name, unit in PER_LAYER.items():
        span, _, kind = name.rpartition(".")
        if unit in ("calls/set", "s/set", "rows/set") and span in sets:
            calls, inclusive, _ = sets[span]
            values[name] = {"calls": calls, "s": inclusive, "rows": tracer.rows[span]}[kind] / n
    resample_spans = [k for k in sets if k.startswith("smc.resample.")]
    values["smc.resample.calls"] = sum(sets[k][0] for k in resample_spans) / n
    values["smc.resample.s"] = sum(sets[k][1] for k in resample_spans) / n
    values["smc.self.s"] = sets.get("smc.run", zero)[2] / n
    values["gmm.tilt.s"] = setup.get("gmm.tilt", zero)[1]
    values["gmm.sample.s"] = setup.get("gmm.sample", zero)[1]
    values["scorenet.train.s"] = setup.get("scorenet.train", zero)[1]
    values["scorenet.adam_steps"] = state.train_steps
    values["scorenet.adam_step_us"] = (
        1e6 * values["scorenet.train.s"] / state.train_steps if state.train_steps else 0.0
    )

    ok = [r for r in traced if not r.failed]
    sweeps = [(tr, r.ancestors[k * spec.particles : (k + 1) * spec.particles])
              for r in ok for k, tr in enumerate(r.traces)]
    steps = sum(len(tr.rows) for tr, _ in sweeps)
    values["smc.steps"] = steps / max(len(ok), 1)
    values["smc.resample_per_step"] = sum(tr.resample_count() for tr, _ in sweeps) / max(steps, 1)
    values["smc.ess_min_p50"] = (
        statistics.median(tr.ess_series().min() / spec.particles for tr, _ in sweeps) if sweeps else 0.0
    )
    values["smc.unique_frac"] = (
        statistics.fmean(len(set(anc.tolist())) / spec.particles for _, anc in sweeps) if sweeps else 0.0
    )

    k = len(untraced)
    base = sum(r.wall_s * f for r, f in zip(untraced, untraced_scales))
    overhead = sum(r.wall_s * f for r, f in zip(traced[:k], traced_scales)) - base
    values["trace.overhead_s"] = overhead / k
    values["trace.overhead_frac"] = overhead / base
    set_s = sets["set"][1] / n
    values["dominant.share"] = sum(values.get(m, 0.0) for m in spec.dominant) / set_s

    counts = {name: (1 if unit in ("s", "count", "us") else n) for name, unit in PER_LAYER.items()}
    counts["trace.overhead_s"] = counts["trace.overhead_frac"] = k
    return {name: (float(values.get(name, 0.0)), unit, counts[name]) for name, unit in PER_LAYER.items()}


def run(args) -> tuple[dict, dict]:
    """Returns (report, result line)."""
    from spans import Tracer, traced_smc
    from workloads import SMOKE, SPECS, quality_problems, set_up

    load_avg = os.getloadavg()
    spec = (SMOKE if args.smoke else SPECS)[args.workload]
    probe = SpeedProbe(spec.probe)
    if args.trace:
        tracer = Tracer()
        state = set_up(spec, args.seed, tracer)
        untraced, untraced_scales = measure(state, 0.0, probe)
        with traced_smc(tracer):
            results, scales = measure(state, args.seconds, probe, tracer)
        problems = [f"set {a.index}: tracing changed the draws or the outcome"
                    for a, b in zip(untraced, results) if (a.digest, a.error) != (b.digest, b.error)]
        metrics = per_layer(state, tracer, results, untraced, scales, untraced_scales)
    else:
        setup_times, probes = [], [probe()]
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            state = set_up(spec, args.seed)
            setup_times.append(time.perf_counter() - t0)
            probes.append(probe())
        results, scales = measure(state, args.seconds, probe)
        metrics = end_to_end(spec, setup_times, probe.scales(probes), results, scales)
        problems = []
    problems += quality_problems(spec, results)

    failures = [f"set {r.index}: {r.error}" for r in results if r.failed]
    names = PER_LAYER if args.trace else END_TO_END
    values_ok = all(math.isfinite(metrics[name][0]) for name in names)
    correct = not failures and not problems and values_ok
    report = {
        "workload": spec.name,
        "smoke": args.smoke,
        "trace": args.trace,
        "sets": len(results),
        "quality_sets": spec.quality_sets,
        "draws_per_set": spec.draws,
        "closed_loop_clients": 1,
        "oracle_floor_emd": state.floor,
        "speed_probe_mb": probe.megabytes,
        "provenance": provenance(args.seed, load_avg),
        "metrics": {k: {"value": _number(v), "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "per_set": [
            {"digest": r.digest, "wall_s": r.wall_s, "sample_s": r.sample_s, "speed_factor": f,
             "emd": _number(r.emd), "outlier": r.outlier, "failed": r.failed}
            for r, f in zip(results, scales)
        ],
        "failures": failures + problems,
        "correct": correct,
    }
    line = {
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {
            name: {"value": _number(metrics[name][0]), "unit": unit}
            for name, unit in names.items()
        },
    }
    return report, line


def _number(value: float) -> float | None:
    """JSON has no NaN: a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def print_table(report: dict):
    print(f"{report['workload']}  seed={report['provenance']['workload_seed']}  "
          f"sets={report['sets']} (quality over the first {report['quality_sets']})  "
          f"trace={report['trace']}")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']!s:>22} {m['unit']:10s} n={m['n']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "das" / "__init__.py").is_file():
        print(f"error: the das package is not at {src / 'das'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import SPECS

    report, line = run(parse_args(argv, SPECS))
    print_table(report)
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
