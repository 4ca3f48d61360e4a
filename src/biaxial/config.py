"""Declarative experiment configuration: INI file + flag overrides + defaults.

Precedence is flags > file > defaults. Unknown sections or keys (keys
are exact-case, in a file as in a flag) are rejected so typos cannot
silently fall back to defaults. Every command echoes its fully resolved
config into the output directory; rerunning from it is byte-identical.

Every section is a dataclass: [data] is `data.DataConfig`, [model]
`BatConfig`, [sampler] `SamplerConfig`, [train] `TrainConfig`, [grid]
`GridConfig` and [output] `OutputConfig`. A section's keys are its
fields, in field order: each key's kind is its field's annotation and its
default the field's default (or its default factory's value), so every
setting is declared once. Two fields are not keys: `static_count`, which
`data.STATIC_SCHEMA` fixes, and the sampler's `forecast_horizon`, which
is always the model's. `load_config` builds and checks every section, so
a bad value in any of them is rejected before a command reads anything.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import MISSING, dataclass, fields

from biaxial.data import DataConfig
from biaxial.model import BatConfig
from biaxial.sampler import SamplerConfig
from biaxial.training import GridConfig, TrainConfig


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration input."""


KINDS = ("int", "float", "bool", "str", "int | None", "list[int]", "list[str]")


def _keys_of(cls, omit=()) -> dict:
    """(kind, default) per field of a dataclass, in field order, calling a
    field's default factory; a field whose annotation is not one of KINDS
    fails here, at import."""
    keys = {}
    for f in fields(cls):
        if f.name in omit:
            continue
        if f.type not in KINDS:
            raise TypeError(f"{cls.__name__}.{f.name}: annotation {f.type!r} "
                            f"is not a config kind {KINDS}")
        keys[f.name] = (f.type, f.default if f.default_factory is MISSING
                            else f.default_factory())
    return keys


@dataclass
class OutputConfig:
    """The [output] section."""
    dir: str = "out"

    def __post_init__(self):
        if "," in self.dir:  # data.paths and data.checkpoint could not name it
            raise ValueError(f"dir must not hold ',', got {self.dir!r}")


SECTIONS = {"data": DataConfig, "model": BatConfig, "sampler": SamplerConfig,
            "train": TrainConfig, "grid": GridConfig, "output": OutputConfig}
# (kind, default) per key
SCHEMA = {section: _keys_of(cls, {"model": ("static_count",),
                                  "sampler": ("forecast_horizon",)}.get(section, ()))
          for section, cls in SECTIONS.items()}


def _parse_value(kind: str, raw: str, where: str):
    # re-decode the UTF-8 bytes the way argv and file names are decoded: a
    # non-ASCII value from this UTF-8 file then equals the same value given
    # as a flag under a non-UTF-8 locale, where it arrives as surrogates
    raw = os.fsdecode(raw.strip().encode("utf-8", "surrogateescape"))
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
        if kind == "int | None":
            return None if raw.lower() in ("", "none") else int(raw)
        if kind == "list[int]":
            return [int(x) for x in raw.split(",") if x.strip()]
        if kind == "list[str]":
            return [x.strip() for x in raw.split(",") if x.strip()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "int | None":
        return "none" if value is None else str(value)
    if kind.startswith("list["):
        return ",".join(str(x) for x in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentConfig:
    """Fully resolved and checked settings for one command invocation."""
    data: DataConfig
    model: BatConfig
    sampler: SamplerConfig
    train: TrainConfig
    grid: GridConfig
    output: OutputConfig

    def to_ini(self) -> str:
        out = io.StringIO()
        for section, keys in SCHEMA.items():
            out.write(f"[{section}]\n")
            for key, (kind, _) in keys.items():
                value = getattr(getattr(self, section), key)
                out.write(f"{key} = {_format_value(kind, value)}\n")
            out.write("\n")
        return out.getvalue()


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve defaults, then the INI file, then override pairs, and build
    every section; a value its section rejects is a ConfigError naming it.

    `overrides` maps "section.key" to raw string values (as given on the
    command line). The file is read literally: "%" is not interpolated.
    """
    values = {section: {} for section in SCHEMA}
    given = []  # (section, key, raw, where): the file's first, so overrides win
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys are exact-case, as in overrides
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {path}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            given += [(section, key, raw, f"[{section}] {key}")
                      for key, raw in parser.items(section)]
    for dotted, raw in (overrides or {}).items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must look like section.key")
        given.append((*dotted.split(".", 1), str(raw), dotted))
    for section, key, raw, where in given:
        if key not in SCHEMA.get(section, {}):
            raise ConfigError(f"{where}: unknown config key")
        values[section][key] = _parse_value(SCHEMA[section][key][0], raw, where)
    built = {}
    for section, cls in SECTIONS.items():  # [model] is built before [sampler] takes its horizon
        if section == "sampler":
            values[section]["forecast_horizon"] = built["model"].forecast_horizon
        try:
            built[section] = cls(**values[section])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return ExperimentConfig(**built)
