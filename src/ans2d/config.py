"""Flat key-value run configuration.

Text format: one `section.key = value` per line, `#` starts a comment,
blank lines ignored.  Unknown keys and malformed values are errors; every
key has a default, and echoing a configuration always writes the complete
key set in schema order so a run's effective configuration round-trips.
The det, sde and ensemble keys are fields of DetConfig, SdeConfig and
EnsembleConfig, and take their defaults from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from .det import INTEGRATORS, DetConfig
from .ensemble import EnsembleConfig
from .errors import ConfigError
from .noise import DEFAULT_ETA, G_FUNCS
from .sde import SdeConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_positive(text: str) -> float:
    value = _parse_finite(text)
    if value <= 0.0:
        raise ValueError(f"must be > 0, got {value!r}")
    return value


def _parse_count(text: str, low: int = 0) -> int:
    value = int(text)
    if value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


def _parse_positive_count(text: str) -> int:
    return _parse_count(text, low=1)


def _parse_levels(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty level list")
    return tuple(int(p) for p in parts)


def _fmt_levels(value: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in value)


def _fmt_default(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class _Key:
    name: str
    parse: Callable[[str], Any]
    default: Any = None
    fmt: Callable[[Any], str] = _fmt_default
    choices: tuple[str, ...] | None = None


def _str_key(name: str, default: str = "", choices: tuple[str, ...] | None = None) -> _Key:
    return _Key(name, lambda s: s.strip(), default, choices=choices)


def _fields(prefix: str, cls: type, *keys: _Key) -> tuple[_Key, ...]:
    """keys, each named by a field of the dataclass cls, as prefix.<field> with its default."""
    defaults = {f.name: f.default for f in fields(cls)}
    return tuple(replace(k, name=f"{prefix}.{k.name}", default=defaults[k.name]) for k in keys)


SCHEMA: tuple[_Key, ...] = (
    _Key("grid.n1", int, 32),
    _Key("grid.n2", int, 32),
    _str_key("init.kind", "taylor-green",
             ("taylor-green", "shear-x1", "shear-x2", "random", "zero")),
    _Key("init.amplitude", _parse_finite, 1.0),
    _Key("init.band", _parse_positive_count, 3),
    _Key("init.seed", _parse_count, 0),
    *_fields("det", DetConfig,
             _Key("dt", _parse_finite), _Key("t_end", _parse_finite),
             _str_key("integrator", choices=INTEGRATORS), _Key("eps_v", _parse_finite)),
    *_fields("sde", SdeConfig,
             _Key("dt", _parse_finite), _Key("t_end", _parse_finite), _Key("galerkin_n", int),
             _Key("seed", _parse_count), _Key("drop_nonlinearity", _parse_bool)),
    _str_key("noise.c_recipes"),
    _str_key("noise.b_recipes"),
    _str_key("noise.g", "one", tuple(G_FUNCS)),
    _Key("noise.eta", _parse_positive, DEFAULT_ETA),
    *_fields("ensemble", EnsembleConfig,
             _Key("n_paths", int), _Key("levels", _parse_levels, fmt=_fmt_levels),
             _Key("batch", int)),
    _str_key("uniqueness.kind", "det", ("det", "sde")),
    _Key("uniqueness.perturbation", _parse_finite, 1e-8),
    _str_key("uniqueness.pert_mode", "1,0"),
    _Key("verify.n_fields", _parse_positive_count, 100),
    _Key("verify.band", _parse_positive_count, 5),
    _Key("verify.seed", _parse_count, 0),
)

_BY_NAME = {k.name: k for k in SCHEMA}


def default_config() -> dict[str, Any]:
    return {k.name: k.default for k in SCHEMA}


def parse_config(text: str) -> dict[str, Any]:
    """Parse configuration text on top of the defaults."""
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        try:
            parsed = key.parse(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {name}: {exc}") from exc
        if key.choices is not None and parsed not in key.choices:
            raise ConfigError(
                f"line {lineno}: {name} must be one of {key.choices}, got {parsed!r}")
        cfg[name] = parsed
    return cfg


def load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def echo_config(cfg: dict[str, Any]) -> str:
    """Canonical full-key text form; parse(echo(cfg)) reproduces cfg."""
    lines = ["# effective configuration (all keys)"]
    for key in SCHEMA:
        lines.append(f"{key.name} = {key.fmt(cfg[key.name])}")
    return "\n".join(lines) + "\n"
