"""Declarative experiment configuration (flat sectioned key-value file).

The file format is INI-style with one level of sections; values are plain
scalars or comma-separated lists, so configs stay language neutral and
diff friendly.  ``parse_config`` and ``serialize_config`` round-trip: a
parsed config serializes to a canonical text whose parse compares equal.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from typing import Optional

from .errors import ConfigError

KNOWN_MODELS = (
    "lmm-exact",
    "lmm-frozen",
    "lmm-picard1",
    "lmm-taylor",
    "fpm",
    "mfm",
    "affine",
)
DRIVER_TYPES = ("brownian", "jump-normal", "jump-double-exp")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see ``configs/`` for examples.

    Parsing checks only what needs no model input.  Value ranges that a
    model input's constructor owns, and the rates and strikes each listed
    model can run on the built curve, are checked by ``experiment.Context``.
    """

    seed: int
    n_paths: int
    delta: float
    n: int
    models: tuple[str, ...]
    steps_per_period: int = 4
    out_dir: str = "out"
    quad_order: int = 64

    # curve: either a flat fixing or a curve file path
    flat_libor: Optional[float] = None
    curve_file: Optional[str] = None

    # driver
    driver_type: str = "brownian"
    drift_b: float = 0.0
    diffusion_c: float = 1.0
    jump_intensity: float = 0.0
    jump_mean: float = 0.0
    jump_sd: float = 0.1
    p_up: float = 0.5
    alpha_pos: float = 10.0
    alpha_neg: float = 10.0

    # volatility loadings (flat over all live cells unless rows are given)
    vol_flat: Optional[float] = None
    vol_rows: tuple[tuple[float, ...], ...] = ()

    # pricing
    strikes: tuple[float, ...] = ()
    strike_factors: tuple[float, ...] = ()
    antithetic: bool = False

    # model extras
    mfm_sigma: Optional[float] = None
    affine_mean_reversion: float = 1.0
    affine_long_run_level: float = 0.05
    affine_vol_of_vol: float = 0.5
    affine_x0: float = 0.05

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "float" in f.type and not _finite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, low in (("seed", 0), ("n_paths", 1), ("steps_per_period", 1), ("quad_order", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.antithetic and self.n_paths % 2:
            raise ConfigError("antithetic sampling needs an even n_paths")
        if self.delta <= 0.0 or self.n < 2:
            raise ConfigError("tenor block needs delta > 0 and n >= 2 (one dynamic rate)")
        if not self.models:
            raise ConfigError("models list must not be empty")
        for m in self.models:
            if m not in KNOWN_MODELS:
                raise ConfigError(f"unknown model {m!r}; valid: {', '.join(KNOWN_MODELS)}")
        if (self.flat_libor is None) == (self.curve_file is None):
            raise ConfigError("curve section needs exactly one of flat_libor / file")
        if self.driver_type not in DRIVER_TYPES:
            raise ConfigError(f"unknown driver type {self.driver_type!r}")
        if self.driver_type == "brownian" and self.jump_intensity != 0.0:
            raise ConfigError("a brownian driver cannot carry jump intensity")
        if self.driver_type != "brownian" and self.jump_intensity <= 0.0:
            raise ConfigError("jump drivers need a positive intensity")
        if "lmm-picard1" in self.models and self.driver_type != "brownian":
            raise ConfigError("lmm-picard1 requires a brownian driver")
        if self.vol_flat is None and not self.vol_rows:
            raise ConfigError("vols section needs flat= or per-rate rows")
        if self.strikes and self.strike_factors:
            raise ConfigError("give strikes or strike_factors, not both")
        if self.curve_file is not None and not os.path.exists(self.curve_file):
            raise ConfigError(f"curve file {self.curve_file!r} does not exist")


# [section] key -> ExperimentConfig field, whose default and type are the key's;
# [vols] rate_1, rate_2, ... with consecutive k fill vol_rows, one row per rate
_TABLE = {
    "experiment": {"seed": "seed", "n_paths": "n_paths", "steps_per_period": "steps_per_period",
                   "out_dir": "out_dir", "quad_order": "quad_order"},
    "tenor": {"delta": "delta", "n": "n"},
    "curve": {"flat_libor": "flat_libor", "file": "curve_file"},
    "driver": {"type": "driver_type", "drift_b": "drift_b", "diffusion_c": "diffusion_c",
               "jump_intensity": "jump_intensity", "jump_mean": "jump_mean", "jump_sd": "jump_sd",
               "p_up": "p_up", "alpha_pos": "alpha_pos", "alpha_neg": "alpha_neg"},
    "vols": {"flat": "vol_flat"},
    "models": {"run": "models"},
    "pricing": {"strikes": "strikes", "strike_factors": "strike_factors",
                "antithetic": "antithetic"},
    "mfm": {"sigma": "mfm_sigma"},
    "affine": {"mean_reversion": "affine_mean_reversion",
               "long_run_level": "affine_long_run_level",
               "vol_of_vol": "affine_vol_of_vol", "x0": "affine_x0"},
}


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return value is None or math.isfinite(value)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _names(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


# field annotation, a string under the __future__ import -> (ConfigParser
# getter that reads the key, writer of the field's value)
_CODECS = {
    "int": ("getint", str),
    "float": ("getfloat", "{:.17g}".format),
    "Optional[float]": ("getfloat", "{:.17g}".format),
    "str": ("get", str),
    "Optional[str]": ("get", str),
    "bool": ("getboolean", lambda v: str(v).lower()),
    "tuple[str, ...]": ("getnames", ", ".join),
    "tuple[float, ...]": ("getfloats", lambda values: ", ".join(map("{:.17g}".format, values))),
}
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def parse_config(source) -> ExperimentConfig:
    """Parse a config file path or literal text into an ExperimentConfig.

    ``source`` is a path (``str`` or ``os.PathLike``), an open text file, or
    the config text itself.  A string without a newline is taken as a path:
    no one-line text holds the required sections, so a missing file is
    reported as missing rather than parsed as text.  A relative ``[curve]
    file`` is resolved against the config file's directory when reading
    from a path, and against the working directory otherwise.  An unknown
    section or key raises ``ConfigError``.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), converters={"floats": _floats, "names": _names}
    )
    base_dir = ""
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        elif isinstance(source, os.PathLike) or "\n" not in source:
            with open(source, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
            base_dir = os.path.dirname(os.fspath(source))
        else:
            parser.read_string(source)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file {os.fspath(source)!r} does not exist") from exc
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    rate_keys = ()  # rate_1, rate_2, ... up to the first gap
    while parser.has_option("vols", f"rate_{len(rate_keys) + 1}"):
        rate_keys += (f"rate_{len(rate_keys) + 1}",)
    for section in (["DEFAULT"] if parser.defaults() else []) + parser.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown config section [{section}]")
        known = tuple(_TABLE[section]) + (rate_keys if section == "vols" else ())
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    try:
        kwargs = {"vol_rows": tuple(parser.getfloats("vols", key) for key in rate_keys)}
        for section, keys in _TABLE.items():
            for key, name in keys.items():
                if parser.has_option(section, key):
                    kwargs[name] = getattr(parser, _CODECS[_FIELDS[name].type][0])(section, key)
                elif _FIELDS[name].default is dataclasses.MISSING:
                    raise ConfigError(f"missing [{section}] {key}")
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if "curve_file" in kwargs:
        kwargs["curve_file"] = os.path.join(base_dir, kwargs["curve_file"])
    return ExperimentConfig(**kwargs)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text, every key not ``None`` or ``()`` in table order; parses back equal."""
    text = ""
    for section, keys in _TABLE.items():
        lines = ""
        for key, name in keys.items():
            value = getattr(cfg, name)
            if value not in (None, ()):
                lines += f"{key} = {_CODECS[_FIELDS[name].type][1](value)}\n"
        if section == "vols":
            write = _CODECS["tuple[float, ...]"][1]
            for k, row in enumerate(cfg.vol_rows):
                lines += f"rate_{k + 1} = {write(row)}\n"
        if lines:
            text += f"[{section}]\n{lines}\n"
    return text


def override(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """Copy with the given fields replaced (CLI flag overrides)."""
    return dataclasses.replace(cfg, **{k: v for k, v in changes.items() if v is not None})
