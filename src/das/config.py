"""Experiment configuration: flat dotted keys, text or JSON on disk.

Text grammar (one assignment per line)::

    # comment
    suite = fig1-top
    smc.particles = 16
    smc.alpha = 1.0

Values parse as JSON scalars where possible (numbers, true/false, null,
quoted strings) and fall back to the raw string.  A ``.json`` file may hold
either the flat mapping or nested objects, which are flattened with dots.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigError, InputError
from .online import OnlineConfig, SurrogateConfig
from .schedule import NoiseSchedule
from .scorenet import MIN_TRAIN_SAMPLES, TrainConfig
from .smc import RESAMPLING_SCHEMES, TEMPER_MODES, SmcConfig, TemperSchedule

# the values a string key may take
CHOICES = {
    "provider": ("analytic", "net"),
    "untempered_variant": ("unguided", "guided"),
    "smc.temper_mode": TEMPER_MODES,
    "smc.resampling": RESAMPLING_SCHEMES,
}


def flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, val in doc.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(flatten(val, prefix=f"{name}."))
        else:
            out[name] = val
    return out


def parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config_text(text: str) -> dict:
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = parse_value(raw.strip())
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return flatten(doc)
    return parse_config_text(text)


def _kind(default) -> str:
    if isinstance(default, list):
        return f"a list of {_kind(default[0]).split(' ', 1)[1]}s"
    return {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}[type(default)]


def _fits(default, value) -> bool:
    """Whether ``value`` may replace ``default``: an int stays an int (a bool
    is not one), a float takes an int too and a list keeps the kind of the
    default's elements."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def _check(key: str, default, value):
    if not _fits(default, value):
        raise ConfigError(f"{key} must be {_kind(default)}, got {json.dumps(value)}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{key} must be one of {', '.join(CHOICES[key])}, got {json.dumps(value)}")
    if value == []:
        raise ConfigError(f"{key} must not be empty")
    if type(default[0] if isinstance(default, list) else default) is int:
        least = 0 if key.rsplit(".", 1)[-1] == "seed" else 1
        if min(value if isinstance(value, list) else [value]) < least:
            raise ConfigError(f"{key} must be at least {least}, got {json.dumps(value)}")


def library_defaults(cls, prefix: str = "", omit: tuple = ()) -> dict:
    """The defaults of the fields of the library config ``cls`` that have a
    plain default, as config keys ``prefix + field``, less those in ``omit``."""
    return {prefix + f.name: f.default for f in fields(cls) if f.default is not MISSING and f.name not in omit}


def build_config(cls, cfg: dict, prefix: str = "", omit: tuple = (), **fixed):
    """The library config ``cls``, each field set by the key ``prefix +
    field`` of ``cfg`` where there is one, the ``fixed`` field values winning
    over the keys and the fields in ``omit`` left at their defaults.  Values
    go in as merged: an integer for a float key computes the same bits.  A
    value the library rejects raises ConfigError naming the settings."""
    names = {f.name for f in fields(cls)} - set(fixed) - set(omit)
    keys = [key for key in cfg if key.startswith(prefix) and key[len(prefix):] in names]
    try:
        return cls(**{key[len(prefix):]: cfg[key] for key in keys}, **fixed)
    except InputError as exc:
        settings = [f"{key} = {json.dumps(cfg[key])}" for key in keys] + [f"{k} = {v}" for k, v in fixed.items()]
        raise ConfigError(f"{exc} ({', '.join(settings)})") from exc


def _check_limits(cfg: dict):
    """Build the library configs that the suites build from ``cfg``, so that
    a value only the library rejects fails before a run makes its directory:
    the sampler config at every particle count a suite runs and, where the
    suite's rows set the tempering mode, in every mode; and ``smc.gamma`` on
    the geometric ramp of the schedule every suite runs."""
    counts = [{"particles": n} for n in cfg["particle_counts"]] if "particle_counts" in cfg else [{}]
    modes = [{}] if "smc.temper_mode" in cfg else [{"temper_mode": mode} for mode in TEMPER_MODES]
    for count, mode in itertools.product(counts, modes):
        build_config(SmcConfig, cfg, "smc.", **count, **mode)
    build_config(TrainConfig, cfg, "train.")
    # the online runner derives both seeds, so the suite key ``seed`` is
    # neither's
    build_config(OnlineConfig, cfg, omit=("seed",))
    build_config(SurrogateConfig, cfg, omit=("seed",))
    if "smc.gamma" in cfg:
        try:
            TemperSchedule.geometric(cfg["smc.gamma"], NoiseSchedule.linear().steps)
        except InputError as exc:
            raise ConfigError(f"{exc} (smc.gamma = {json.dumps(cfg['smc.gamma'])})") from exc
    if cfg.get("train.samples", MIN_TRAIN_SAMPLES) < MIN_TRAIN_SAMPLES:
        raise ConfigError(f"train.samples must be at least {MIN_TRAIN_SAMPLES}, got {cfg['train.samples']}")


def merge_config(defaults: dict, *overrides: dict) -> dict:
    """Layer overrides onto suite defaults.  Unknown keys, values of another
    kind than the default's, a string outside its key's choices, an empty
    list, a negative seed, any other integer below 1 and any value outside
    the limits of the library config it goes to are errors."""
    cfg = dict(defaults)
    for layer in overrides:
        unknown = sorted(set(layer) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in layer.items():
            _check(key, defaults[key], value)
        cfg.update(layer)
    _check_limits(cfg)
    return cfg


def render_config(cfg: dict) -> str:
    lines = [f"{key} = {json.dumps(cfg[key])}" for key in sorted(cfg)]
    return "\n".join(lines) + "\n"
