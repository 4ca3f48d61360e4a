"""Declarative experiment configuration: INI file + flag overrides + defaults.

Precedence is flags > file > defaults. Unknown sections or keys are
rejected so typos cannot silently fall back to defaults. Every command
echoes its fully resolved config into the output directory; rerunning
from that echo reproduces the run byte for byte.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from biaxial.model import BatConfig
from biaxial.sampler import SamplerConfig
from biaxial.training import GRID_VARIANTS, GridConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration input."""


# (type, default) per key; defaults mirror the reference training setup
SCHEMA = {
    "data": {
        "paths": ("strlist", []),
        "checkpoint": ("str", ""),
        "n": ("int", 1000),
        "prevalence": ("float", 0.119),
        "mean_stay_hours": ("float", 48.0),
        "sparsity": ("float", 0.5),
        "availability_profile": ("int", 0),
        "name": ("str", "synthetic"),
    },
    "model": {
        "sensors_count": ("int", 48),
        "value_embed_size": ("int", 128),
        "layers": ("int", 2),
        "heads": ("int", 1),
        "dropout": ("float", 0.364),
        "attn_dropout": ("float", 0.207),
        "pooling": ("str", "max"),
        "use_mask": ("bool", False),
        "forecast_horizon": ("int", 2),
    },
    "sampler": {
        "min_obs_len": ("int", 12),
        "forecast_horizon": ("int", 2),
        "max_obs": ("optint", None),
        "max_tries": ("optint", None),
    },
    "train": {
        "batch_size": ("int", 64),
        "epochs": ("int", 200),
        "patience": ("int", 10),
        "min_delta": ("float", 5e-3),
        "learning_rate": ("float", 7.781e-4),
        "weight_decay": ("float", 1e-6),
        "lr_gamma": ("float", 0.95),
        "seed": ("int", 0),
        "weighted_loss": ("bool", True),
        "standardization": ("str", "refit"),
    },
    "grid": {
        "sizes": ("intlist", [100, 500, 1000]),
        "seeds": ("intlist", [0, 1, 2, 3, 4]),
        "variants": ("strlist", list(GRID_VARIANTS)),
        **{f"lr_{name}": ("float", v.lr) for name, v in GRID_VARIANTS.items()},
        "jobs": ("int", 1),
        "save_model": ("str", ""),
    },
    "output": {
        "dir": ("str", "out"),
    },
}


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "optint":
            return None if raw.lower() in ("", "none") else int(raw)
        if kind == "intlist":
            return [int(x) for x in raw.split(",") if x.strip()]
        if kind == "strlist":
            return [x.strip() for x in raw.split(",") if x.strip()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "optint":
        return "none" if value is None else str(value)
    if kind in ("intlist", "strlist"):
        return ",".join(str(x) for x in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentConfig:
    """Fully resolved settings for one command invocation."""
    values: dict

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    # -- typed views -----------------------------------------------------

    def _view(self, section: str, cls, values: dict | None = None):
        """Build `cls` from a section's values (or `values`), reporting a
        rejected value as a ConfigError that names the section."""
        try:
            return cls(**(self.values[section] if values is None else values))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None

    def model_cfg(self) -> BatConfig:
        return self._view("model", BatConfig)

    def sampler_cfg(self) -> SamplerConfig:
        s, m = self.values["sampler"], self.values["model"]
        if s["forecast_horizon"] != m["forecast_horizon"]:
            raise ConfigError(
                "sampler.forecast_horizon must equal model.forecast_horizon")
        return self._view("sampler", SamplerConfig)

    def train_cfg(self) -> TrainConfig:
        return self._view("train", TrainConfig)

    def grid_cfg(self) -> GridConfig:
        g = self.values["grid"]
        return self._view("grid", GridConfig, dict(
            sizes=list(g["sizes"]), seeds=list(g["seeds"]),
            variants=list(g["variants"]), jobs=g["jobs"],
            learning_rates={name: g[f"lr_{name}"] for name in GRID_VARIANTS}))

    # -- serialization ---------------------------------------------------

    def to_ini(self) -> str:
        out = io.StringIO()
        for section in SCHEMA:
            out.write(f"[{section}]\n")
            for key, (kind, _) in SCHEMA[section].items():
                out.write(f"{key} = {_format_value(kind, self.values[section][key])}\n")
            out.write("\n")
        return out.getvalue()


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve defaults, then the INI file, then override pairs.

    `overrides` maps "section.key" to raw string values (as given on the
    command line).
    """
    values = {section: {key: default for key, (_, default) in keys.items()}
              for section, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                kind = SCHEMA[section][key][0]
                values[section][key] = _parse_value(kind, raw, f"[{section}] {key}")
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {dotted!r}")
        kind = SCHEMA[section][key][0]
        values[section][key] = _parse_value(kind, str(raw), dotted)
    return ExperimentConfig(values)
