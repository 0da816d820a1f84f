"""Declarative experiment configuration (flat sectioned key-value file).

The file format is INI-style with one level of sections; values are plain
scalars or comma-separated lists, so configs stay language neutral and
diff friendly.  ``parse_config`` and ``serialize_config`` round-trip: a
parsed config serializes to a canonical text whose parse compares equal.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, fields
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
# keys of each section; [vols] also takes rate_1, rate_2, ... with consecutive k
_KEYS = {
    "experiment": ("seed", "n_paths", "steps_per_period", "out_dir", "quad_order"),
    "tenor": ("delta", "n"),
    "curve": ("flat_libor", "file"),
    "driver": ("type", "drift_b", "diffusion_c", "jump_intensity", "jump_mean", "jump_sd",
               "p_up", "alpha_pos", "alpha_neg"),
    "vols": ("flat",),
    "models": ("run",),
    "pricing": ("strikes", "strike_factors", "antithetic"),
    "mfm": ("sigma",),
    "affine": ("mean_reversion", "long_run_level", "vol_of_vol", "x0"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see ``configs/`` for examples."""

    seed: int
    n_paths: int
    steps_per_period: int
    delta: float
    n: int
    models: tuple

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
    vol_rows: tuple = ()

    # pricing
    strikes: tuple = ()
    strike_factors: tuple = ()
    antithetic: bool = False

    # model extras
    mfm_sigma: Optional[float] = None
    affine_mean_reversion: float = 1.0
    affine_long_run_level: float = 0.05
    affine_vol_of_vol: float = 0.5
    affine_x0: float = 0.05

    out_dir: str = "out"
    quad_order: int = 64

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.steps_per_period < 1:
            raise ConfigError("steps_per_period must be >= 1")
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


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.replace(",", " ").split())


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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
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
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _KEYS[section] + (rate_keys if section == "vols" else ())
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def need(section: str, key: str) -> str:
        if not parser.has_option(section, key):
            raise ConfigError(f"missing [{section}] {key}")
        return parser.get(section, key)

    def get(section: str, key: str, fallback=None):
        return parser.get(section, key, fallback=fallback)

    try:
        exp = "experiment"
        kwargs = dict(
            seed=int(need(exp, "seed")),
            n_paths=int(need(exp, "n_paths")),
            steps_per_period=int(get(exp, "steps_per_period", "4")),
            out_dir=get(exp, "out_dir", "out"),
            quad_order=int(get(exp, "quad_order", "64")),
            delta=float(need("tenor", "delta")),
            n=int(need("tenor", "n")),
            models=tuple(
                m.strip() for m in need("models", "run").split(",") if m.strip()
            ),
        )
        if parser.has_option("curve", "flat_libor"):
            kwargs["flat_libor"] = float(parser.get("curve", "flat_libor"))
        if parser.has_option("curve", "file"):
            kwargs["curve_file"] = os.path.join(base_dir, parser.get("curve", "file"))
        drv = "driver"
        kwargs.update(
            driver_type=get(drv, "type", "brownian"),
            drift_b=float(get(drv, "drift_b", "0.0")),
            diffusion_c=float(get(drv, "diffusion_c", "1.0")),
            jump_intensity=float(get(drv, "jump_intensity", "0.0")),
            jump_mean=float(get(drv, "jump_mean", "0.0")),
            jump_sd=float(get(drv, "jump_sd", "0.1")),
            p_up=float(get(drv, "p_up", "0.5")),
            alpha_pos=float(get(drv, "alpha_pos", "10.0")),
            alpha_neg=float(get(drv, "alpha_neg", "10.0")),
        )
        if parser.has_option("vols", "flat"):
            kwargs["vol_flat"] = float(parser.get("vols", "flat"))
        kwargs["vol_rows"] = tuple(_floats(parser.get("vols", key)) for key in rate_keys)
        if parser.has_section("pricing"):
            if parser.has_option("pricing", "strikes"):
                kwargs["strikes"] = _floats(parser.get("pricing", "strikes"))
            if parser.has_option("pricing", "strike_factors"):
                kwargs["strike_factors"] = _floats(parser.get("pricing", "strike_factors"))
            kwargs["antithetic"] = parser.getboolean("pricing", "antithetic", fallback=False)
        if parser.has_option("mfm", "sigma"):
            kwargs["mfm_sigma"] = float(parser.get("mfm", "sigma"))
        if parser.has_section("affine"):
            kwargs.update(
                affine_mean_reversion=float(get("affine", "mean_reversion", "1.0")),
                affine_long_run_level=float(get("affine", "long_run_level", "0.05")),
                affine_vol_of_vol=float(get("affine", "vol_of_vol", "0.5")),
                affine_x0=float(get("affine", "x0", "0.05")),
            )
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    return ExperimentConfig(**kwargs)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces an equal config."""
    out = io.StringIO()

    def sect(name: str, pairs):
        rows = [(k, v) for k, v in pairs if v is not None]
        if not rows:
            return
        out.write(f"[{name}]\n")
        for k, v in rows:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    def lst(values):
        return ", ".join(f"{v:.17g}" for v in values) if values else None

    sect(
        "experiment",
        [
            ("seed", cfg.seed),
            ("n_paths", cfg.n_paths),
            ("steps_per_period", cfg.steps_per_period),
            ("out_dir", cfg.out_dir),
            ("quad_order", cfg.quad_order),
        ],
    )
    sect("tenor", [("delta", f"{cfg.delta:.17g}"), ("n", cfg.n)])
    sect(
        "curve",
        [
            ("flat_libor", None if cfg.flat_libor is None else f"{cfg.flat_libor:.17g}"),
            ("file", cfg.curve_file),
        ],
    )
    driver_pairs = [("type", cfg.driver_type), ("drift_b", f"{cfg.drift_b:.17g}"),
                    ("diffusion_c", f"{cfg.diffusion_c:.17g}")]
    if cfg.driver_type == "jump-normal":
        driver_pairs += [
            ("jump_intensity", f"{cfg.jump_intensity:.17g}"),
            ("jump_mean", f"{cfg.jump_mean:.17g}"),
            ("jump_sd", f"{cfg.jump_sd:.17g}"),
        ]
    elif cfg.driver_type == "jump-double-exp":
        driver_pairs += [
            ("jump_intensity", f"{cfg.jump_intensity:.17g}"),
            ("p_up", f"{cfg.p_up:.17g}"),
            ("alpha_pos", f"{cfg.alpha_pos:.17g}"),
            ("alpha_neg", f"{cfg.alpha_neg:.17g}"),
        ]
    sect("driver", driver_pairs)
    vol_pairs = [("flat", None if cfg.vol_flat is None else f"{cfg.vol_flat:.17g}")]
    vol_pairs += [(f"rate_{k + 1}", lst(row)) for k, row in enumerate(cfg.vol_rows)]
    sect("vols", vol_pairs)
    sect("models", [("run", ", ".join(cfg.models))])
    sect(
        "pricing",
        [
            ("strikes", lst(cfg.strikes)),
            ("strike_factors", lst(cfg.strike_factors)),
            ("antithetic", str(cfg.antithetic).lower() if cfg.antithetic else None),
        ],
    )
    if cfg.mfm_sigma is not None:
        sect("mfm", [("sigma", f"{cfg.mfm_sigma:.17g}")])
    if "affine" in cfg.models:
        sect(
            "affine",
            [
                ("mean_reversion", f"{cfg.affine_mean_reversion:.17g}"),
                ("long_run_level", f"{cfg.affine_long_run_level:.17g}"),
                ("vol_of_vol", f"{cfg.affine_vol_of_vol:.17g}"),
                ("x0", f"{cfg.affine_x0:.17g}"),
            ],
        )
    return out.getvalue()


def override(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """Copy with the given fields replaced (CLI flag overrides)."""
    current = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    current.update({k: v for k, v in changes.items() if v is not None})
    return ExperimentConfig(**current)
