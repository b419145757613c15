"""Command-line entry point.

Usage::

    das run <suite> [--config F] [--seed S] [--particles N] [--alpha A]
                    [--gamma G] [--out DIR] [--dry-run]
    das list-suites
    das train-score [...]
    das online [...]

Exit codes: 0 ok, 2 config error, 3 runtime error.  The environment variable
DAS_OUT_DIR overrides --out.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy
import scipy

from . import __version__
from .blas import openblas_build
from .config import load_config, merge_config, render_config
from .errors import ConfigError
from .suites import SUITES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_run_flags(parser):
    parser.add_argument("--config", help="config file (key = value text, or .json)")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument("--particles", type=int, help="override smc.particles")
    parser.add_argument("--alpha", type=float, help="override smc.alpha")
    parser.add_argument("--gamma", type=float, help="override smc.gamma")
    parser.add_argument("--out", default="out", help="artifact root directory (default: ./out)")
    parser.add_argument("--dry-run", action="store_true", help="echo the resolved config and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="das",
        description="Toy-scale tempered SMC sampling from reward-tilted diffusion models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment suite")
    run.add_argument("suite", help="suite name (see `das list-suites`)")
    _add_run_flags(run)

    sub.add_parser("list-suites", help="list available suites")

    train = sub.add_parser("train-score", help="shortcut for `das run train-score`")
    _add_run_flags(train)

    online = sub.add_parser("online", help="shortcut for `das run online`")
    _add_run_flags(online)

    return parser


def _flag_overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.particles is not None:
        overrides["smc.particles"] = args.particles
    if args.alpha is not None:
        overrides["smc.alpha"] = args.alpha
    if args.gamma is not None:
        overrides["smc.gamma"] = args.gamma
    return overrides


def _execute_suite(suite_name: str, args) -> int:
    if suite_name not in SUITES:
        print(
            f"error: unknown suite '{suite_name}'; available: {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    spec = SUITES[suite_name]
    try:
        file_cfg = load_config(args.config) if args.config else {}
        named = file_cfg.pop("suite", suite_name)
        if named != suite_name:
            raise ConfigError(f"the config file is for suite {json.dumps(named)}, not {json.dumps(suite_name)}")
        cfg = merge_config(spec.defaults, file_cfg, _flag_overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    echo = render_config(cfg)
    print(f"# suite: {suite_name}")
    print(echo, end="")
    if args.dry_run:
        return EXIT_OK

    out_root = Path(os.environ.get("DAS_OUT_DIR", args.out))
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    outdir = _fresh_dir(out_root, f"{suite_name}-{stamp}")
    resolved = f"suite = {json.dumps(suite_name)}\n" + echo
    (outdir / "resolved.cfg").write_text(resolved)

    def log(msg: str):
        print(f"[{suite_name}] {msg}")

    t0 = time.time()
    try:
        metrics = spec.runner(cfg, outdir, log)
    except Exception as exc:  # noqa: BLE001 - suite failures map to exit 3
        print(f"runtime error in suite '{suite_name}': {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    metrics = {
        "suite": suite_name,
        "runtime_seconds": round(time.time() - t0, 2),
        "provenance": _provenance(resolved),
        **metrics,
    }
    with open(outdir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
    log(f"done in {metrics['runtime_seconds']}s; artifacts in {outdir}")
    return EXIT_OK


def _provenance(resolved_cfg: str) -> dict:
    """Versions of the interpreter, numpy, scipy and das, the OpenBLAS core
    and build string (see :func:`das.blas.openblas_build`), the git commit of
    the das source (None outside a checkout) and the SHA-256 of the text
    written to ``resolved.cfg``."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "das": __version__,
        **openblas_build(),
        "git_sha": _git_sha(),
        "config_sha256": hashlib.sha256(resolved_cfg.encode()).hexdigest(),
    }


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _fresh_dir(root: Path, name: str) -> Path:
    """Create ``root/name``, or ``name-2``, ``name-3``, ... when it is taken,
    so runs started in the same second never share a directory."""
    root.mkdir(parents=True, exist_ok=True)
    for k in itertools.count(1):
        path = root / (name if k == 1 else f"{name}-{k}")
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-suites":
        for name in sorted(SUITES):
            spec = SUITES[name]
            print(f"{name:18s} ~{spec.expected_minutes:>4.1f} min  {spec.description}")
        return EXIT_OK
    if args.command == "run":
        return _execute_suite(args.suite, args)
    if args.command in ("train-score", "online"):
        return _execute_suite(args.command, args)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
