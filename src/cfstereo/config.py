"""Plain-text run configuration.

Files hold `key = value` lines; blank lines and lines starting with '#' are
ignored. Unknown keys are rejected so typos cannot silently fall back to
defaults. The full key set is serialized next to every run for
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    features_channels: int = 16
    features_census_radius: int = 1
    features_stat_radius: int = 2
    cost_w_group: float = 1.0
    cost_w_absdiff: float = 1.0
    pipeline_dmax: int = 256
    fusion_enabled: bool = True
    fusion_smooth_radius: tuple[int, int, int] = (1, 1, 1)
    fusion_passes: int = 1
    fusion_hourglass_passes: int = 1
    cascade_alpha: tuple[float, float] = (0.0, 0.0)
    cascade_beta: tuple[float, float] = (0.0, 0.0)
    cascade_n1: int = 12
    cascade_n2: int = 16
    cascade_min_step: float = 0.25


def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_float(s: str) -> float:
    return float(s)


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _tuple_parser(item_parser, width):
    def parse(s: str):
        items = [p.strip() for p in s.split(",")]
        if len(items) == 1:
            items = items * width
        if len(items) != width:
            raise ValueError(f"expected 1 or {width} comma-separated values, got {len(items)}")
        return tuple(item_parser(p) for p in items)

    return parse


def _fmt_tuple(v) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


_KEYS = {
    "features.channels": ("features_channels", _parse_int, _fmt_scalar),
    "features.census_radius": ("features_census_radius", _parse_int, _fmt_scalar),
    "features.stat_radius": ("features_stat_radius", _parse_int, _fmt_scalar),
    "cost.w_group": ("cost_w_group", _parse_float, _fmt_scalar),
    "cost.w_absdiff": ("cost_w_absdiff", _parse_float, _fmt_scalar),
    "pipeline.dmax": ("pipeline_dmax", _parse_int, _fmt_scalar),
    "fusion.enabled": ("fusion_enabled", _parse_bool, _fmt_scalar),
    "fusion.smooth_radius": ("fusion_smooth_radius", _tuple_parser(_parse_int, 3), _fmt_tuple),
    "fusion.passes": ("fusion_passes", _parse_int, _fmt_scalar),
    "fusion.hourglass_passes": ("fusion_hourglass_passes", _parse_int, _fmt_scalar),
    "cascade.alpha": ("cascade_alpha", _tuple_parser(_parse_float, 2), _fmt_tuple),
    "cascade.beta": ("cascade_beta", _tuple_parser(_parse_float, 2), _fmt_tuple),
    "cascade.n1": ("cascade_n1", _parse_int, _fmt_scalar),
    "cascade.n2": ("cascade_n2", _parse_int, _fmt_scalar),
    "cascade.min_step": ("cascade_min_step", _parse_float, _fmt_scalar),
}


def validate_config(cfg: RunConfig) -> RunConfig:
    c = cfg
    float_values = {
        "cost.w_group": (c.cost_w_group,),
        "cost.w_absdiff": (c.cost_w_absdiff,),
        "cascade.alpha": c.cascade_alpha,
        "cascade.beta": c.cascade_beta,
        "cascade.min_step": (c.cascade_min_step,),
    }
    for key, values in float_values.items():
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite")
    if c.features_channels < 1:
        raise ConfigError("features.channels must be positive")
    if c.features_census_radius < 1:
        raise ConfigError("features.census_radius must be >= 1")
    if c.features_stat_radius < 0:
        raise ConfigError("features.stat_radius must be >= 0")
    if c.pipeline_dmax < 64 or c.pipeline_dmax % 32:
        raise ConfigError("pipeline.dmax must be a multiple of 32 and at least 64")
    if any(r < 0 for r in c.fusion_smooth_radius):
        raise ConfigError("fusion.smooth_radius entries must be >= 0")
    if c.fusion_passes < 1 or c.fusion_hourglass_passes < 1:
        raise ConfigError("fusion pass counts must be >= 1")
    if any(a < -1.0 for a in c.cascade_alpha):
        raise ConfigError("cascade.alpha must be >= -1")
    if any(b < 0.0 for b in c.cascade_beta):
        raise ConfigError("cascade.beta must be >= 0")
    if c.cascade_n1 < 2 or c.cascade_n2 < 2:
        raise ConfigError("cascade.n1 and cascade.n2 must be >= 2")
    if c.cascade_min_step <= 0.0:
        raise ConfigError("cascade.min_step must be > 0")
    return c


def parse_config(text: str) -> RunConfig:
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        field, parser, _ = _KEYS[key]
        try:
            seen[key] = (field, parser(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = replace(RunConfig(), **{field: v for field, v in seen.values()})
    return validate_config(cfg)


def format_config(cfg: RunConfig) -> str:
    lines = []
    by_field = {field: (key, fmt) for key, (field, _, fmt) in _KEYS.items()}
    for f in fields(cfg):
        key, fmt = by_field[f.name]
        lines.append(f"{key} = {fmt(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
